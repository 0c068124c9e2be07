"""Unit tests for core/satellite decomposition and vertex ordering (Sections 3, 5.3)."""

from repro.amber.decompose import decompose_query, order_core_vertices
from repro.multigraph.query_graph import build_query_multigraph
from repro.sparql.parser import parse_sparql

PAPER_QUERY = """
SELECT * WHERE {
  ?X0 y:livedIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:wasMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacityOf "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X3 y:livedIn x:United_States .
}
"""


def qgraph_for(text, paper_data, prefixes):
    return build_query_multigraph(parse_sparql(prefixes + text), paper_data)


def names(qgraph, ids):
    return {qgraph.variable_of(i).name for i in ids}


class TestDecomposition:
    def test_paper_example_core_and_satellites(self, paper_data, prefixes):
        """Figure 4: Uc = {u1, u3, u5}, Us = {u0, u2, u4, u6}."""
        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        assert names(qgraph, decomposition.core) == {"X1", "X3", "X5"}
        assert names(qgraph, decomposition.satellites) == {"X0", "X2", "X4", "X6"}

    def test_satellites_attached_to_their_core(self, paper_data, prefixes):
        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        by_name = {
            qgraph.variable_of(c).name: names(qgraph, decomposition.satellites_of[c])
            for c in decomposition.core
        }
        assert by_name["X1"] == {"X0", "X2", "X4"}
        assert by_name["X3"] == {"X6"}
        assert by_name["X5"] == set()

    def test_single_multi_edge_promotes_one_core(self, paper_data, prefixes):
        qgraph = qgraph_for("SELECT * WHERE { ?a y:wasBornIn ?b . }", paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        assert len(decomposition.core) == 1
        assert len(decomposition.satellites) == 1

    def test_single_vertex_query(self, paper_data, prefixes):
        qgraph = qgraph_for('SELECT * WHERE { ?s y:hasName "MCA_Band" . }', paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        assert len(decomposition.core) == 1
        assert decomposition.satellites == []

    def test_most_constrained_vertex_promoted(self, paper_data, prefixes):
        # ?a has an attribute, ?b does not: ?a should be the core vertex.
        qgraph = qgraph_for(
            'SELECT * WHERE { ?a y:wasPartOf ?b . ?a y:hasCapacityOf "90000" . }',
            paper_data,
            prefixes,
        )
        decomposition = decompose_query(qgraph)
        assert names(qgraph, decomposition.core) == {"a"}

    def test_empty_component(self, paper_data, prefixes):
        qgraph = qgraph_for("SELECT * WHERE { ?a y:wasBornIn ?b . }", paper_data, prefixes)
        decomposition = decompose_query(qgraph, component=set())
        assert decomposition.core == [] and decomposition.satellites == []

    def test_decomposition_restricted_to_component(self, paper_data, prefixes):
        qgraph = qgraph_for(
            "SELECT * WHERE { ?a y:isPartOf ?b . ?b y:hasCapital ?a . ?c y:livedIn ?d . }",
            paper_data,
            prefixes,
        )
        components = qgraph.connected_components()
        assert len(components) == 2
        for component in components:
            decomposition = decompose_query(qgraph, component)
            assert set(decomposition.core) | set(decomposition.satellites) == component


class TestOrdering:
    def test_paper_example_order(self, paper_data, prefixes):
        """Section 5.3: the ordered core vertices are u1, u3, u5."""
        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        ordered = order_core_vertices(qgraph, decomposition)
        assert [qgraph.variable_of(u).name for u in ordered] == ["X1", "X3", "X5"]

    def test_order_is_connected(self, paper_data, prefixes):
        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        ordered = order_core_vertices(qgraph, decomposition)
        for position in range(1, len(ordered)):
            previous = set(ordered[:position])
            assert qgraph.graph.neighbors(ordered[position]) & previous

    def test_r2_priority_without_satellites(self, paper_data, prefixes):
        # Triangle query: no satellites, ordering falls back to edge-count rank.
        qgraph = qgraph_for(
            "SELECT * WHERE { ?a y:isPartOf ?b . ?b y:hasCapital ?a . ?c y:wasBornIn ?b . ?c y:livedIn ?a . }",
            paper_data,
            prefixes,
        )
        decomposition = decompose_query(qgraph)
        assert decomposition.satellites == []
        ordered = order_core_vertices(qgraph, decomposition)
        assert len(ordered) == 3

    def test_random_strategy_returns_all_core_vertices(self, paper_data, prefixes):
        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        ordered = order_core_vertices(qgraph, decomposition, strategy="random")
        assert sorted(ordered) == sorted(decomposition.core)

    def test_unknown_strategy_rejected(self, paper_data, prefixes):
        import pytest

        qgraph = qgraph_for(PAPER_QUERY, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        with pytest.raises(ValueError):
            order_core_vertices(qgraph, decomposition, strategy="alphabetical")

    def test_order_probes_each_vertex_neighbourhood_once_per_step(
        self, paper_data, prefixes, monkeypatch
    ):
        """The frontier test builds one neighbour set per remaining vertex per step."""
        predicates = ["isPartOf", "livedIn", "hasCapital", "wasBornIn"] * 2
        edges = [f"?v{i} y:{p} ?v{(i + 1) % 8} ." for i, p in enumerate(predicates)]
        ring = "SELECT * WHERE { " + " ".join(edges) + " ?v0 y:diedIn ?v1 . ?v4 y:diedIn ?v5 . }"
        qgraph = qgraph_for(ring, paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        core = len(decomposition.core)
        assert core == 8
        calls = []
        neighbors = type(qgraph.graph).neighbors
        monkeypatch.setattr(
            type(qgraph.graph),
            "neighbors",
            lambda graph, vertex: calls.append(vertex) or neighbors(graph, vertex),
        )
        ordered = order_core_vertices(qgraph, decomposition)
        assert len(calls) <= core * (core - 1) // 2
        assert [qgraph.variable_of(u).name for u in ordered] == [f"v{i}" for i in range(8)]

    def test_single_core_ordering(self, paper_data, prefixes):
        qgraph = qgraph_for("SELECT * WHERE { ?a y:wasBornIn ?b . }", paper_data, prefixes)
        decomposition = decompose_query(qgraph)
        assert order_core_vertices(qgraph, decomposition) == decomposition.core
