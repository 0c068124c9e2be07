"""Unit tests for the directed vertex-attributed multigraph."""

import pytest

from repro.multigraph.graph import Multigraph


class TestConstruction:
    def test_add_vertex_idempotent(self):
        g = Multigraph()
        g.add_vertex(0)
        g.add_vertex(0)
        assert len(g) == 1

    def test_add_edge_creates_vertices(self):
        g = Multigraph()
        g.add_edge(0, 1, 5)
        assert 0 in g and 1 in g
        assert g.has_edge(0, 1, 5)
        assert not g.has_edge(1, 0, 5)

    def test_multi_edge_accumulates_types(self):
        g = Multigraph()
        g.add_edge(0, 1, 4)
        g.add_edge(0, 1, 5)
        assert g.edge_types(0, 1) == frozenset({4, 5})

    def test_self_loop_rejected(self):
        g = Multigraph()
        with pytest.raises(ValueError):
            g.add_edge(3, 3, 0)

    def test_attributes(self):
        g = Multigraph()
        g.add_attribute(0, 2)
        g.add_attribute(0, 7)
        assert g.attributes(0) == frozenset({2, 7})
        assert g.attribute_count(0) == 2
        assert g.attributes(99) == frozenset()


class TestNeighborhoods:
    def setup_method(self):
        # v2-like structure from Figure 1c: multiple in and out edges.
        self.g = Multigraph()
        self.g.add_edge(1, 2, 4)
        self.g.add_edge(1, 2, 5)
        self.g.add_edge(3, 2, 1)
        self.g.add_edge(2, 3, 0)
        self.g.add_edge(2, 4, 2)

    def test_out_neighbors(self):
        assert set(self.g.out_neighbors(2)) == {3, 4}
        assert self.g.out_neighbors(2)[3] == {0}

    def test_in_neighbors(self):
        assert set(self.g.in_neighbors(2)) == {1, 3}
        assert self.g.in_neighbors(2)[1] == {4, 5}

    def test_neighbors_union(self):
        assert self.g.neighbors(2) == {1, 3, 4}

    def test_degrees(self):
        assert self.g.degree(2) == 3
        assert self.g.in_degree(2) == 2
        assert self.g.out_degree(2) == 2
        assert self.g.degree(4) == 1

    def test_edges_enumeration(self):
        edges = {(s, t): types for s, t, types in self.g.edges()}
        assert edges[(1, 2)] == frozenset({4, 5})
        assert edges[(2, 4)] == frozenset({2})
        assert len(edges) == 4


class TestCountsAndStats:
    def test_counts(self):
        g = Multigraph()
        g.add_edge(0, 1, 0)
        g.add_edge(0, 1, 1)
        g.add_edge(1, 2, 0)
        g.add_attribute(0, 0)
        assert g.vertex_count() == 3
        assert g.edge_count() == 2            # distinct (source, target) pairs
        assert g.multi_edge_count() == 3       # (edge, type) incidences
        assert g.distinct_edge_types() == {0, 1}

    def test_statistics_keys(self):
        g = Multigraph()
        g.add_edge(0, 1, 0)
        g.add_attribute(1, 3)
        stats = g.statistics()
        assert stats["vertices"] == 2
        assert stats["edges"] == 1
        assert stats["edge_types"] == 1
        assert stats["attributed_vertices"] == 1
