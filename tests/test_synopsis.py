"""Unit tests for vertex signatures and synopses, validated against Table 3."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.synopsis import (
    data_synopsis,
    dominates,
    query_synopsis,
    side_features,
    signature_of,
    vertex_synopsis,
)
from repro.multigraph.graph import Multigraph
from repro.rdf.terms import IRI


def paper_edge_type(paper_data, local: str) -> int:
    return paper_data.edge_type_id(IRI("http://dbpedia.org/ontology/" + local))


def paper_vertex(paper_data, local: str) -> int:
    return paper_data.vertex_id(IRI("http://dbpedia.org/resource/" + local))


class TestSignature:
    def test_signature_splits_directions(self, paper_data):
        london = paper_vertex(paper_data, "London")
        signature = signature_of(paper_data.graph, london)
        # London (v2 in Fig. 1c): 4 incoming multi-edges, 2 outgoing multi-edges.
        assert len(signature.incoming) == 4
        assert len(signature.outgoing) == 2

    def test_multi_edge_in_signature(self, paper_data):
        london = paper_vertex(paper_data, "London")
        signature = signature_of(paper_data.graph, london)
        born = paper_edge_type(paper_data, "wasBornIn")
        died = paper_edge_type(paper_data, "diedIn")
        assert frozenset({born, died}) in signature.incoming

    def test_edge_type_total(self, paper_data):
        london = paper_vertex(paper_data, "London")
        signature = signature_of(paper_data.graph, london)
        # Incoming: hasCapital, wasBornIn, {wasBornIn,diedIn}, wasFormedIn = 5 incidences;
        # outgoing: isPartOf, hasStadium = 2.
        assert signature.edge_type_total() == 7

    def test_isolated_vertex_signature_empty(self):
        graph = Multigraph()
        graph.add_vertex(0)
        signature = signature_of(graph, 0)
        assert signature.incoming == () and signature.outgoing == ()


class TestSideFeatures:
    def test_table3_style_features(self):
        # Mirror of sigma+_{v2} = {{t1},{t5},{t6},{t4,t5}} from Table 3.
        multi_edges = [frozenset({1}), frozenset({5}), frozenset({6}), frozenset({4, 5})]
        f1, f2, f3, f4 = side_features(multi_edges)
        assert f1 == 2          # max cardinality
        assert f2 == 4          # distinct edge types (1, 4, 5, 6)
        assert f3 == -1         # negated minimum index
        assert f4 == 6          # maximum index

    def test_empty_side_is_all_zero(self):
        assert side_features([]) == (0.0, 0.0, 0.0, 0.0)

    def test_single_multi_edge(self):
        assert side_features([frozenset({7})]) == (1.0, 1.0, -7.0, 7.0)


class TestSynopses:
    def test_data_synopsis_has_eight_fields(self, paper_data):
        london = paper_vertex(paper_data, "London")
        synopsis = data_synopsis(signature_of(paper_data.graph, london))
        assert len(synopsis) == 8

    def test_query_synopsis_empty_side_does_not_constrain(self):
        # A query vertex with no incoming edges must accept any data vertex,
        # including ones whose incoming minimum edge index is positive.
        query = query_synopsis([], [frozenset({3})])
        data = (1.0, 2.0, -2.0, 5.0, 1.0, 1.0, -3.0, 3.0)
        assert dominates(query, data)

    def test_dominance_is_field_wise(self):
        query = query_synopsis([frozenset({2})], [])
        smaller = (1.0, 1.0, -2.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        assert dominates(query, smaller)
        # A data vertex whose max incoming index is below the query's fails.
        assert not dominates(query, (1.0, 1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0))

    def test_dominates_length_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_paper_candidate_example_for_u0(self, paper_data):
        """Section 4.2's example: candidates for u0 (signature {-t5}) are v1 and v7."""
        graph = paper_data.graph
        t5 = paper_edge_type(paper_data, "wasBornIn")
        query = query_synopsis([], [frozenset({t5})])
        candidates = {
            vertex
            for vertex in graph.vertices()
            if dominates(query, data_synopsis(signature_of(graph, vertex)))
        }
        amy = paper_vertex(paper_data, "Amy_Winehouse")
        nolan = paper_vertex(paper_data, "Christopher_Nolan")
        assert amy in candidates and nolan in candidates
        # Vertices with no outgoing wasBornIn-compatible signature are pruned,
        # e.g. the stadium and the band.
        assert paper_vertex(paper_data, "WembleyStadium") not in candidates
        assert paper_vertex(paper_data, "Music_Band") not in candidates


_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 9)),
    max_size=40,
)


class TestVertexSynopsis:
    """The adjacency-read synopsis equals the signature route on every vertex."""

    @settings(max_examples=200, deadline=None)
    @given(edges=_edges, isolated=st.integers(0, 3))
    def test_equals_the_signature_oracle(self, edges, isolated):
        graph = Multigraph()
        for vertex in range(8, 8 + isolated):
            graph.add_vertex(vertex)  # both sides empty
        for source, target, edge_type in edges:
            if source != target:
                graph.add_edge(source, target, edge_type)
        for vertex in graph.vertices():
            expected = data_synopsis(signature_of(graph, vertex))
            assert vertex_synopsis(graph, vertex) == expected

    def test_one_empty_side(self):
        graph = Multigraph()
        graph.add_edge(0, 1, 4)
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 2, 7)
        assert vertex_synopsis(graph, 0) == (0.0, 0.0, 0.0, 0.0, 2.0, 3.0, -2.0, 7.0)
        assert vertex_synopsis(graph, 1) == (2.0, 2.0, -2.0, 4.0, 0.0, 0.0, 0.0, 0.0)
        for vertex in (0, 1, 2):
            assert vertex_synopsis(graph, vertex) == data_synopsis(signature_of(graph, vertex))
