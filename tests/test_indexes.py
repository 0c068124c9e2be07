"""Unit tests for the attribute index A, signature index S and neighbourhood index N."""

import gc
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from index_exactness import assert_columnar_exact, assert_indexes_exact
from repro.datasets import DbpediaGenerator
from repro.index.attribute_index import AttributeIndex
from repro.index.columnar import ColumnarEdges
from repro.index.manager import IndexSet
from repro.index.signature_index import SignatureIndex
from repro.index.synopsis import data_synopsis, dominates, query_synopsis, signature_of
from repro.multigraph.builder import build_data_multigraph
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
        graph = Multigraph()
        graph.add_attribute(3, 0)
        graph.add_attribute(4, 0)
        index = AttributeIndex()
        index.apply(graph, [(3, 0), (4, 0)])
        assert index.posting_array(0).tolist() == [3, 4]
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
        index = ColumnarEdges(paper_data.graph)
        london = vid(paper_data, "London")
        t5 = eid(paper_data, "wasBornIn")
        assert index.neighbors(london, INCOMING, {t5}) == {
            vid(paper_data, "Amy_Winehouse"),
            vid(paper_data, "Christopher_Nolan"),
        }

    def test_multi_edge_subset_lookup(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        london = vid(paper_data, "London")
        born, died = eid(paper_data, "wasBornIn"), eid(paper_data, "diedIn")
        assert index.neighbors(london, INCOMING, {born, died}) == {vid(paper_data, "Amy_Winehouse")}

    def test_outgoing_lookup(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        london = vid(paper_data, "London")
        has_stadium = eid(paper_data, "hasStadium")
        wembley = vid(paper_data, "WembleyStadium")
        assert index.neighbors(london, OUTGOING, {has_stadium}) == {wembley}

    def test_unknown_edge_type_gives_empty(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        assert index.neighbors(vid(paper_data, "London"), INCOMING, {9999}) == set()

    def test_unknown_vertex_gives_empty(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        assert index.neighbors(424242, INCOMING, {0}) == set()
        assert index.neighbors(424242, INCOMING, set()) == set()
        assert index.row(424242, 0, INCOMING).tolist() == []

    def test_invalid_direction_rejected(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        with pytest.raises(ValueError):
            index.neighbors(vid(paper_data, "London"), "sideways", {0})
        with pytest.raises(ValueError):
            index.arrays(0, "sideways")

    def test_empty_edge_type_set_returns_all_neighbors(self, paper_data):
        index = ColumnarEdges(paper_data.graph)
        london = vid(paper_data, "London")
        assert len(index.neighbors(london, INCOMING, set())) == 4


def _star(multi_edges: dict[int, list[int]], center: int = 0) -> Multigraph:
    """``center`` pointing at each neighbour through the given multi-edge."""
    graph = Multigraph()
    graph.add_vertex(center)
    for neighbor, edge_types in multi_edges.items():
        for edge_type in edge_types:
            graph.add_edge(center, neighbor, edge_type)
    return graph


class TestNeighborsOverCsr:
    """The OTIL's subset query (Section 4.3) answered by row intersection."""

    def test_subset_semantics(self):
        graph = _star({10: [3, 1], 11: [1], 12: [2, 3]})
        index = ColumnarEdges(graph)
        assert index.neighbors(0, OUTGOING, {1}) == {10, 11}
        assert index.neighbors(0, OUTGOING, {1, 3}) == {10}
        assert index.neighbors(0, OUTGOING, {2, 3}) == {12}
        assert index.neighbors(0, OUTGOING, {1, 2}) == set()
        assert index.neighbors(10, INCOMING, {1, 3}) == {0}
        assert index.neighbors(10, OUTGOING, {1}) == set()

    def test_empty_type_set_gives_every_neighbor_on_that_side(self):
        graph = _star({10: [3, 1], 11: [1], 12: [2, 3]})
        index = ColumnarEdges(graph)
        assert index.neighbors(0, OUTGOING, set()) == {10, 11, 12}
        assert index.neighbors(0, INCOMING, set()) == set()
        assert index.neighbors(12, INCOMING, ()) == {0}

    def test_unknown_type_gives_empty(self):
        index = ColumnarEdges(_star({10: [1]}))
        assert index.neighbors(0, OUTGOING, {4}) == set()
        assert index.neighbors(0, OUTGOING, {1, 4}) == set()

    def test_rows_are_sorted_zero_copy_views(self):
        index = ColumnarEdges(_star({12: [1], 10: [1, 2], 11: [1]}))
        row = index.row(0, 1, OUTGOING)
        assert row.tolist() == [10, 11, 12]
        assert np.shares_memory(row, index.arrays(1, OUTGOING)[0])  # a view, not a copy

    def test_reinsert_with_a_different_multi_edge(self):
        graph = _star({10: [1, 2], 11: [1]})
        index = ColumnarEdges(graph)
        graph.remove_edge(0, 10, 1)
        graph.remove_edge(0, 10, 2)
        graph.add_edge(0, 10, 3)
        index.apply(graph, [(0, 10, 1), (0, 10, 2), (0, 10, 3)])
        assert index.neighbors(0, OUTGOING, {1}) == {11}
        assert index.neighbors(0, OUTGOING, {2}) == set()
        assert index.neighbors(0, OUTGOING, {3}) == {10}
        assert index.neighbors(10, INCOMING, set()) == {0}
        assert_columnar_exact(index, graph)

    def test_reinsert_extends_and_shrinks_a_shared_multi_edge(self):
        graph = _star({10: [1, 2], 11: [1, 2, 3]})
        index = ColumnarEdges(graph)
        graph.add_edge(0, 10, 4)
        graph.remove_edge(0, 11, 2)
        graph.remove_edge(0, 11, 3)
        index.apply(graph, [(0, 10, 4), (0, 11, 2), (0, 11, 3)])
        assert index.neighbors(0, OUTGOING, {1, 2}) == {10}
        assert index.neighbors(0, OUTGOING, {3}) == set()
        assert index.neighbors(0, OUTGOING, {1}) == {10, 11}
        assert_columnar_exact(index, graph)

    def test_removing_every_edge_empties_the_rows(self):
        graph = _star({10: [1, 2], 11: [1, 3], 12: [4]})
        index = ColumnarEdges(graph)
        removed = [(0, 10, 1), (0, 10, 2), (0, 11, 1), (0, 11, 3), (0, 12, 4)]
        for source, target, edge_type in removed:
            graph.remove_edge(source, target, edge_type)
        index.apply(graph, removed)
        for edge_type in (1, 2, 3, 4):
            assert index.neighbors(0, OUTGOING, {edge_type}) == set()
        assert index.neighbors(0, OUTGOING, set()) == set()
        assert index.posting_entries() == 0
        assert_columnar_exact(index, graph)


def _random_graph(rng: random.Random, vertices: int, edges: int) -> Multigraph:
    graph = Multigraph()
    for vertex in range(vertices):
        graph.add_vertex(vertex)
    for _ in range(edges):
        source, target = rng.sample(range(vertices), 2)
        graph.add_edge(source, target, rng.randrange(4))
    return graph


class TestColumnarEdges:
    def test_one_pass_build_matches_the_adjacency(self):
        graph = _random_graph(random.Random(5), 30, 120)
        columnar = ColumnarEdges(graph)
        for edge_type in range(5):
            for direction in (INCOMING, OUTGOING):
                neighbors, keys = columnar.arrays(edge_type, direction)
                assert np.array_equal(neighbors, keys & 0xFFFFFFFF)
                assert (np.diff(keys) > 0).all()
                expected_keys = []
                for vertex in graph.vertices():
                    adjacent = (
                        graph.in_neighbors(vertex)
                        if direction == INCOMING
                        else graph.out_neighbors(vertex)
                    )
                    expected = sorted(n for n, types in adjacent.items() if edge_type in types)
                    expected_keys += [(vertex << 32) | n for n in expected]
                    assert columnar.row(vertex, edge_type, direction).tolist() == expected
                assert keys.tolist() == expected_keys

    def test_empty_graph_builds(self):
        columnar = ColumnarEdges(Multigraph())
        assert columnar.posting_entries() == 0
        assert columnar.neighbors(0, OUTGOING, {1}) == set()

    def test_patches_match_a_fresh_build_under_churn(self):
        rng = random.Random(11)
        graph = _random_graph(rng, 20, 60)
        columnar = ColumnarEdges(graph)
        for _ in range(30):
            changed = []
            for _ in range(rng.randrange(1, 5)):
                source, target = rng.sample(range(20), 2)
                edge_type = rng.randrange(6)  # types 4 and 5 are new
                if graph.has_edge(source, target, edge_type):
                    graph.remove_edge(source, target, edge_type)
                else:
                    graph.add_edge(source, target, edge_type)
                changed.append((source, target, edge_type))
            columnar.apply(graph, changed)
            assert_columnar_exact(columnar, graph)
            assert columnar.posting_entries() == 2 * graph.multi_edge_count()

    def test_a_vertex_far_past_the_largest_id_joins_without_rekeying(self):
        graph = _random_graph(random.Random(3), 10, 30)
        columnar = ColumnarEdges(graph)
        before = dict(columnar._arrays)
        beyond = 1_000_000
        graph.add_edge(beyond, 4, 2)
        columnar.apply(graph, [(beyond, 4, 2)])
        assert all(columnar._arrays[key] is arrays for key, arrays in before.items() if key[0] != 2)
        assert_columnar_exact(columnar, graph)
        assert columnar.neighbors(4, INCOMING, {2}) >= {beyond}
        assert columnar.neighbors(beyond, OUTGOING, {2}) == {4}

    def test_ids_past_the_key_range_are_rejected(self):
        graph = _star({10: [1]})
        columnar = ColumnarEdges(graph)
        graph.add_edge(2**31, 10, 1)
        with pytest.raises(OverflowError, match="2\\*\\*31"):
            columnar.apply(graph, [(2**31, 10, 1)])
        with pytest.raises(OverflowError):
            ColumnarEdges(graph)
        graph = Multigraph()
        graph.add_attribute(2**31, 0)
        with pytest.raises(OverflowError):
            AttributeIndex(graph)


class TestIndexSet:
    def test_build_produces_report(self, paper_data):
        indexes = IndexSet.build(paper_data)
        assert indexes.report is not None
        assert indexes.report.total_seconds >= 0
        assert indexes.report.total_items > 0
        assert len(indexes.signatures) == 9
        assert_indexes_exact(SimpleNamespace(data=paper_data, indexes=indexes))

    def test_neighborhood_items_count_csr_postings(self, paper_data):
        """Table 5's N items: one posting per (edge, type) and direction."""
        indexes = IndexSet.build(paper_data)
        multi_edges = sum(len(types) for _, _, types in paper_data.graph.edges())
        assert indexes.report.neighborhood_items == 2 * multi_edges
        assert indexes.neighborhoods.posting_entries() == 2 * multi_edges


def _traced(build):
    """``(result, retained bytes, peak bytes)`` of ``build()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


class TestMemoryGuard:
    """The index ensemble costs no more memory than the data multigraph it indexes.

    Deterministic: tracemalloc counts bytes allocated, not a timing.  With
    the OTIL tries and their posting copies the ensemble traced ~2.9× the
    multigraph on this dataset; with ``N`` as a CSR (one row-pointer array
    per edge type) and ``A`` as a Python set per attribute it was ~0.9×
    (1.76 MB at peak against 2.00 MB).  With shared edge labels the
    multigraph is 0.78 MB, so the bound is stricter; ``A`` and ``N`` as
    sorted pair-key arrays peak at 0.47 MB (~0.6×).
    """

    def test_index_build_allocates_no_more_than_the_multigraph(self):
        triples = DbpediaGenerator(entities_per_domain=60, seed=1).generate()
        data, data_bytes, _ = _traced(lambda: build_data_multigraph(triples))
        indexes, retained, peak = _traced(lambda: IndexSet.build(data))
        assert retained <= data_bytes, (retained, data_bytes)
        assert peak <= data_bytes, (peak, data_bytes)
        assert indexes.report.neighborhood_items == 2 * data.graph.multi_edge_count()


def _nbytes(arrays) -> int:
    return sum(array.nbytes for array in arrays)


class TestMemoryShape:
    """What the resident graph and indexes hold, counted exactly (no timing)."""

    @pytest.fixture(scope="class")
    def data(self):
        return build_data_multigraph(DbpediaGenerator(entities_per_domain=60, seed=1).generate())

    def test_multi_edges_share_one_label_per_type_set(self, data):
        graph = data.graph
        labels: dict[frozenset[int], frozenset[int]] = {}
        for source, target, types in graph.edges():
            assert labels.setdefault(types, types) is types, (source, target)
            assert graph.in_neighbors(target)[source] is types
            assert graph.edge_types(source, target) is types
        assert len(labels) * 10 < graph.edge_count()

    def test_labels_stay_shared_and_unmutated_under_edits(self):
        graph = Multigraph()
        graph.add_edge(0, 1, 5)
        graph.add_edge(2, 3, 5)
        shared = graph.edge_types(0, 1)
        assert graph.edge_types(2, 3) is shared
        graph.add_edge(0, 1, 6)
        assert shared == {5}
        assert graph.edge_types(0, 1) == {5, 6}
        assert graph.in_neighbors(1)[0] is graph.edge_types(0, 1)
        graph.remove_edge(0, 1, 6)
        assert graph.edge_types(0, 1) is shared
        graph.remove_edge(0, 1, 5)
        assert not graph.has_edge(0, 1) and 0 not in graph.in_neighbors(1)

    def test_neighborhood_arrays_are_16_bytes_per_posting(self, data):
        columnar = ColumnarEdges(data.graph)
        total = sum(_nbytes(arrays) for arrays in columnar._arrays.values())
        assert total == 16 * columnar.posting_entries()
        assert columnar.posting_entries() == 2 * data.graph.multi_edge_count()

    def test_attribute_arrays_are_16_bytes_per_posting(self, data):
        attributes = AttributeIndex(data.graph)
        assert _nbytes(attributes._arrays) == 16 * attributes.memory_items()
        assert attributes.memory_items() == sum(
            data.graph.attribute_count(vertex) for vertex in data.graph.vertices()
        )
