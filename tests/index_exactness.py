"""Rebuild-equivalence check shared by the update tests.

``assert_indexes_exact`` compares every index an update maintains in place
with a fresh build on the same (mutated) graph: the arrays of ``A``,
synopses and the signature matrix, the neighbourhood answers of ``N`` for
every vertex, side, single edge type and full multi-edge, and every array
of ``N`` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.index.attribute_index import AttributeIndex
from repro.index.columnar import ColumnarEdges
from repro.index.signature_index import SignatureIndex
from repro.index.synopsis import data_synopsis, signature_of
from repro.multigraph.query_graph import INCOMING, OUTGOING

__all__ = ["assert_indexes_exact", "assert_columnar_exact", "assert_attributes_exact"]


def assert_columnar_exact(columnar: ColumnarEdges, graph) -> None:
    """Assert every array of ``N`` equals a fresh :class:`ColumnarEdges` build.

    The same (type, direction) entries exist on both sides, and each
    entry's ``neighbors`` and pair ``keys`` are equal element for element.
    """
    fresh = ColumnarEdges(graph)
    assert set(columnar._arrays) == set(fresh._arrays)
    for key, (neighbors, keys) in fresh._arrays.items():
        maintained_neighbors, maintained_keys = columnar.arrays(*key)
        assert np.array_equal(maintained_neighbors, neighbors), key
        assert np.array_equal(maintained_keys, keys), key


def assert_attributes_exact(attributes: AttributeIndex, graph) -> None:
    """Assert the arrays of ``A`` equal a fresh :class:`AttributeIndex` build."""
    for maintained, fresh in zip(attributes._arrays, AttributeIndex(graph)._arrays):
        assert np.array_equal(maintained, fresh)


def assert_neighbors_exact(maintained: ColumnarEdges, graph) -> None:
    """Assert ``neighbors()`` agrees with a fresh build and with the adjacency.

    Probes every vertex and side with the empty type set, each single
    type of each incident multi-edge, and each full multi-edge.
    """
    fresh = ColumnarEdges(graph)
    for vertex in graph.vertices():
        for direction, adjacent in (
            (INCOMING, graph.in_neighbors(vertex)),
            (OUTGOING, graph.out_neighbors(vertex)),
        ):
            probes = {frozenset()}
            for types in adjacent.values():
                probes.add(frozenset(types))
                probes.update(frozenset({t}) for t in types)
            for probe in probes:
                expected = {n for n, types in adjacent.items() if probe <= types}
                found = maintained.neighbors(vertex, direction, probe)
                assert found == expected, (vertex, direction, probe)
                assert fresh.neighbors(vertex, direction, probe) == expected


def assert_indexes_exact(engine) -> None:
    """Assert every maintained index of ``engine`` equals a fresh build on its graph.

    ``engine`` is anything with ``data.graph`` and ``indexes`` — an
    :class:`~repro.AmberEngine` or one shard of a sharded engine.
    """
    graph = engine.data.graph
    indexes = engine.indexes
    assert_attributes_exact(indexes.attributes, graph)
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
    assert_neighbors_exact(indexes.neighborhoods, graph)
    assert_columnar_exact(indexes.neighborhoods, graph)
    assert indexes.neighborhoods.posting_entries() == 2 * graph.multi_edge_count()
