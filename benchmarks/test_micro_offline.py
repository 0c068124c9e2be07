"""Micro-benchmarks of the offline-stage building blocks.

These are conventional pytest-benchmark timings (multiple rounds) of the
individual index structures, complementing the end-to-end Table 5 run:
multigraph construction, synopsis matrix build, neighbourhood index build and
the two hot index probes used during matching.
"""

from __future__ import annotations

import pytest

from repro.bench import build_dataset
from repro.index.attribute_index import AttributeIndex
from repro.index.columnar import ColumnarEdges
from repro.index.signature_index import SignatureIndex
from repro.multigraph.builder import build_data_multigraph
from repro.multigraph.query_graph import INCOMING


@pytest.fixture(scope="module")
def yago_store(bench_scale):
    return build_dataset("YAGO", bench_scale)


@pytest.fixture(scope="module")
def yago_data(yago_store):
    return build_data_multigraph(iter(yago_store))


def test_micro_multigraph_build(benchmark, yago_store):
    """RDF tripleset -> data multigraph transformation."""
    data = benchmark(lambda: build_data_multigraph(iter(yago_store)))
    assert data.graph.vertex_count() > 0


def test_micro_signature_index_build(benchmark, yago_data):
    """Synopsis computation into the dense synopsis matrix for every vertex."""
    index = benchmark(lambda: SignatureIndex(yago_data.graph))
    assert len(index) == yago_data.graph.vertex_count()


def test_micro_neighborhood_index_build(benchmark, yago_data):
    """Neighbourhood index N: the pair-key arrays of every (edge type, direction)."""
    index = benchmark(lambda: ColumnarEdges(yago_data.graph))
    assert index.posting_entries() == 2 * yago_data.graph.multi_edge_count()


def test_micro_attribute_index_build(benchmark, yago_data):
    """Inverted attribute list construction."""
    index = benchmark(lambda: AttributeIndex(yago_data.graph))
    assert len(index) > 0


def test_micro_signature_probe(benchmark, yago_data):
    """Initial-candidate retrieval from the synopsis matrix (hot online path)."""
    index = SignatureIndex(yago_data.graph)
    edge_types = sorted(yago_data.graph.distinct_edge_types())[:2]
    query = ([frozenset({edge_types[0]})], [frozenset({edge_types[-1]})])
    candidates = benchmark(lambda: index.candidates(*query))
    assert isinstance(candidates, set)


def test_micro_neighborhood_probe(benchmark, yago_data):
    """Neighbourhood expansion through N's rows (hot online path)."""
    index = ColumnarEdges(yago_data.graph)
    # Pick the highest in-degree vertex: the worst case for an expansion probe.
    hub = max(yago_data.graph.vertices(), key=yago_data.graph.in_degree)
    edge_type = next(iter(next(iter(yago_data.graph.in_neighbors(hub).values()))))
    neighbors = benchmark(lambda: index.neighbors(hub, INCOMING, {edge_type}))
    assert neighbors
