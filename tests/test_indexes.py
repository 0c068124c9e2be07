"""Unit tests for the attribute index A, signature index S and neighbourhood index N."""

import random

import pytest

from repro.index.attribute_index import AttributeIndex
from repro.index.manager import IndexSet
from repro.index.neighborhood import NeighborhoodIndex, Otil
from repro.index.signature_index import SignatureIndex
from repro.index.synopsis import data_synopsis, dominates, query_synopsis, signature_of
from repro.multigraph.graph import Multigraph
from repro.multigraph.query_graph import INCOMING, OUTGOING
from repro.rdf.terms import IRI

X = "http://dbpedia.org/resource/"
Y = "http://dbpedia.org/ontology/"


def vid(paper_data, local):
    return paper_data.vertex_id(IRI(X + local))


def eid(paper_data, local):
    return paper_data.edge_type_id(IRI(Y + local))


def aid(paper_data, local, value):
    from repro.rdf.terms import Literal

    return paper_data.attribute_id(IRI(Y + local), Literal(value))


class TestAttributeIndex:
    def test_single_attribute_lookup(self, paper_data):
        index = AttributeIndex(paper_data.graph)
        capacity = aid(paper_data, "hasCapacityOf", "90000")
        assert index.candidates({capacity}) == {vid(paper_data, "WembleyStadium")}

    def test_conjunction_of_attributes(self, paper_data):
        """Section 4.1's example: u5 with {a1, a2} matches only the band vertex."""
        index = AttributeIndex(paper_data.graph)
        name = aid(paper_data, "hasName", "MCA_Band")
        founded = aid(paper_data, "foundedIn", "1994")
        assert index.candidates({name, founded}) == {vid(paper_data, "Music_Band")}

    def test_unknown_attribute_yields_empty(self, paper_data):
        index = AttributeIndex(paper_data.graph)
        assert index.candidates({9999}) == set()

    def test_empty_attribute_set_rejected(self, paper_data):
        index = AttributeIndex(paper_data.graph)
        with pytest.raises(ValueError):
            index.candidates(set())

    def test_incremental_add(self):
        index = AttributeIndex()
        index.add(3, 0)
        index.add(4, 0)
        assert index.vertices_with(0) == {3, 4}
        assert index.attribute_count() == 1
        assert index.memory_items() == 2

    def test_build_counts(self, paper_data):
        index = AttributeIndex(paper_data.graph)
        assert len(index) == 3
        assert index.memory_items() == 3


class TestSignatureIndex:
    def test_candidates_superset_of_exact_matches(self, paper_data):
        """Lemma 1: the index never prunes a valid candidate."""
        index = SignatureIndex(paper_data.graph)
        t5 = eid(paper_data, "wasBornIn")
        candidates = index.candidates([], [frozenset({t5})])
        # Amy and Nolan are the exact matches; both must be present.
        assert vid(paper_data, "Amy_Winehouse") in candidates
        assert vid(paper_data, "Christopher_Nolan") in candidates

    def test_mask_and_scan_agree(self, paper_data):
        index = SignatureIndex(paper_data.graph)
        t_part_of = eid(paper_data, "isPartOf")
        t_capital = eid(paper_data, "hasCapital")
        cases = [
            ([], [frozenset({t_part_of})]),
            ([frozenset({t_capital})], []),
            ([frozenset({t_part_of})], [frozenset({t_capital})]),
            ([], []),
        ]
        for incoming, outgoing in cases:
            assert index.candidates(incoming, outgoing) == index.candidates_scan(incoming, outgoing)

    def test_unconstrained_query_returns_all_vertices(self, paper_data):
        index = SignatureIndex(paper_data.graph)
        assert index.candidates([], []) == set(paper_data.graph.vertices())

    def test_structural_metadata(self, paper_data):
        index = SignatureIndex(paper_data.graph)
        assert len(index) == 9
        assert len(index.synopsis(vid(paper_data, "London"))) == 8


def lemma1_scan(graph, incoming, outgoing):
    """Brute-force Lemma 1 over synopses recomputed from ``graph``."""
    query_fields = query_synopsis(incoming, outgoing)
    return {
        vertex
        for vertex in graph.vertices()
        if dominates(query_fields, data_synopsis(signature_of(graph, vertex)))
    }


class TestSignatureMatrix:
    def test_empty_index(self):
        for index in (SignatureIndex(), SignatureIndex(Multigraph())):
            assert len(index) == 0
            assert index.candidates([], []) == set()
            assert index.candidates([], [frozenset({0})]) == set()
            assert index.candidates_among([1, 2], [], []) == set()

    def test_single_vertex(self):
        graph = Multigraph()
        graph.add_vertex(7)
        index = SignatureIndex(graph)
        assert len(index) == 1
        assert index.candidates([], []) == {7}
        assert index.candidates([], [frozenset({0})]) == set()
        assert index.synopsis(7) == (0.0,) * 8

    def test_refresh_appends_vertices_past_capacity(self):
        graph = Multigraph()
        index = SignatureIndex(graph)
        for vertex in range(1, 101):
            graph.add_edge(vertex, 0, vertex % 5)
            index.refresh(graph, vertex)
        index.refresh(graph, 0)
        assert len(index) == 101
        for vertex in graph.vertices():
            assert index.synopsis(vertex) == data_synopsis(signature_of(graph, vertex))
        query = ([], [frozenset({3})])
        assert index.candidates(*query) == lemma1_scan(graph, *query)
        assert index.candidates(*query) == {v for v in range(1, 101) if v % 5 == 3}

    def test_refresh_overwrites_row_in_place(self):
        graph = Multigraph()
        graph.add_edge(1, 2, 0)
        index = SignatureIndex(graph)
        graph.add_edge(1, 3, 4)
        index.refresh(graph, 1)
        assert len(index) == 2
        assert index.synopsis(1) == data_synopsis(signature_of(graph, 1))
        assert index.candidates([], [frozenset({4})]) == {1}
        graph.remove_edge(1, 3, 4)
        index.refresh(graph, 1)
        assert index.candidates([], [frozenset({4})]) == set()
        assert index.candidates([], [frozenset({0})]) == {1}

    def test_candidates_among_ignores_absent_members(self):
        graph = Multigraph()
        for source in (1, 2, 3):
            graph.add_edge(source, 0, 1)
        index = SignatureIndex(graph)
        query = ([], [frozenset({1})])
        assert index.candidates_among([2, 3, 42, 99], *query) == {2, 3}
        assert index.candidates_among([0, 42], *query) == set()
        assert index.candidates_among([], *query) == set()

    def test_empty_side_imposes_no_constraint(self):
        """A query side without edges is a ``-inf`` bound, so any ``-min`` passes."""
        graph = Multigraph()
        graph.add_edge(1, 2, 9)
        graph.add_edge(3, 1, 0)
        index = SignatureIndex(graph)
        assert index.candidates([], [frozenset({9})]) == {1}
        assert index.candidates([frozenset({9})], []) == {2}
        assert index.candidates([], []) == {1, 2, 3}

    def test_matches_lemma1_scan_on_random_graph(self):
        rng = random.Random(42)
        graph = Multigraph()
        for _ in range(400):
            source, target = rng.sample(range(60), 2)
            graph.add_edge(source, target, rng.randrange(6))
        index = SignatureIndex(graph)
        members = rng.sample(range(80), 40)
        for _ in range(50):
            incoming = [frozenset(rng.sample(range(6), rng.randint(1, 2)))
                        for _ in range(rng.randint(0, 2))]
            outgoing = [frozenset(rng.sample(range(6), rng.randint(1, 2)))
                        for _ in range(rng.randint(0, 2))]
            expected = lemma1_scan(graph, incoming, outgoing)
            assert index.candidates(incoming, outgoing) == expected
            assert index.candidates_scan(incoming, outgoing) == expected
            assert index.candidates_among(members, incoming, outgoing) == expected & set(members)


class TestNeighborhoodIndex:
    def test_incoming_lookup_matches_paper_example(self, paper_data):
        """Section 4.3: N+ of London for edge type wasBornIn gives Amy and Nolan."""
        index = NeighborhoodIndex(paper_data.graph)
        london = vid(paper_data, "London")
        t5 = eid(paper_data, "wasBornIn")
        assert index.neighbors(london, INCOMING, {t5}) == {
            vid(paper_data, "Amy_Winehouse"),
            vid(paper_data, "Christopher_Nolan"),
        }

    def test_multi_edge_subset_lookup(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        london = vid(paper_data, "London")
        born, died = eid(paper_data, "wasBornIn"), eid(paper_data, "diedIn")
        assert index.neighbors(london, INCOMING, {born, died}) == {vid(paper_data, "Amy_Winehouse")}

    def test_outgoing_lookup(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        london = vid(paper_data, "London")
        has_stadium = eid(paper_data, "hasStadium")
        wembley = vid(paper_data, "WembleyStadium")
        assert index.neighbors(london, OUTGOING, {has_stadium}) == {wembley}

    def test_unknown_edge_type_gives_empty(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        assert index.neighbors(vid(paper_data, "London"), INCOMING, {9999}) == set()

    def test_unknown_vertex_gives_empty(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        assert index.neighbors(424242, INCOMING, {0}) == set()

    def test_invalid_direction_rejected(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        with pytest.raises(ValueError):
            index.neighbors(vid(paper_data, "London"), "sideways", {0})

    def test_empty_edge_type_set_returns_all_neighbors(self, paper_data):
        index = NeighborhoodIndex(paper_data.graph)
        london = vid(paper_data, "London")
        assert len(index.neighbors(london, INCOMING, set())) == 4


class TestOtil:
    def test_insert_and_subset_query(self):
        otil = Otil()
        otil.insert(10, [3, 1])
        otil.insert(11, [1])
        otil.insert(12, [2, 3])
        assert otil.neighbors_with({1}) == {10, 11}
        assert otil.neighbors_with({1, 3}) == {10}
        assert otil.neighbors_with({4}) == set()
        assert otil.neighbors_with(set()) == {10, 11, 12}

    def test_multi_edge_lookup(self):
        otil = Otil()
        otil.insert(10, [3, 1])
        assert otil.multi_edge(10) == frozenset({1, 3})
        assert otil.multi_edge(99) == frozenset()

    def test_trie_node_count(self):
        otil = Otil()
        otil.insert(10, [1, 2])
        otil.insert(11, [1, 3])
        # Paths 1->2 and 1->3 share the root node for edge type 1.
        assert otil.node_count() == 3
        assert otil.neighbor_count() == 2

    def test_empty_insert_ignored(self):
        otil = Otil()
        otil.insert(10, [])
        assert len(otil) == 0


class TestIndexSet:
    def test_build_produces_report(self, paper_data):
        indexes = IndexSet.build(paper_data)
        assert indexes.report is not None
        assert indexes.report.total_seconds >= 0
        assert indexes.report.total_items > 0
        assert len(indexes.signatures) == 9
        assert len(indexes.neighborhoods) == 9
