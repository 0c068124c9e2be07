"""Engine-level tests for dynamic updates and incremental index maintenance."""

import pytest

from repro import AmberEngine, IRI, Literal, Triple, UpdateError
from repro.index.attribute_index import AttributeIndex
from repro.index.neighborhood import NeighborhoodIndex
from repro.index.signature_index import SignatureIndex
from repro.index.synopsis import data_synopsis, signature_of

X = "http://dbpedia.org/resource/"
Y = "http://dbpedia.org/ontology/"
E = "http://example.org/"


def assert_indexes_exact(engine: AmberEngine) -> None:
    """Assert every maintained index equals a fresh build on the same graph."""
    graph = engine.data.graph
    fresh_attributes = AttributeIndex(graph)
    assert engine.indexes.attributes._postings == fresh_attributes._postings
    for vertex in graph.vertices():
        expected = data_synopsis(signature_of(graph, vertex))
        assert engine.indexes.signatures.synopsis(vertex) == expected
    fresh_signatures = SignatureIndex(graph)
    probes = [
        ([], []),
        ([], [frozenset({0})]),
        ([frozenset({0})], []),
        ([frozenset({0, 1})], [frozenset({1})]),
    ]
    for incoming, outgoing in probes:
        maintained = engine.indexes.signatures.candidates(incoming, outgoing)
        assert maintained == fresh_signatures.candidates(incoming, outgoing)
        assert maintained == engine.indexes.signatures.candidates_scan(incoming, outgoing)
    fresh_neighborhoods = NeighborhoodIndex(graph)
    edge_types = sorted(graph.distinct_edge_types())[:4] or [0]
    for vertex in graph.vertices():
        for direction in "+-":
            for edge_type in edge_types:
                maintained = engine.indexes.neighborhoods.neighbors(
                    vertex, direction, [edge_type]
                )
                expected = fresh_neighborhoods.neighbors(vertex, direction, [edge_type])
                assert maintained == expected


@pytest.fixture()
def engine(paper_turtle) -> AmberEngine:
    """A fresh, mutable engine over the Figure 1 dataset (function scope)."""
    return AmberEngine.from_turtle(paper_turtle)


class TestInsert:
    def test_insert_makes_new_rows_visible(self, engine, prefixes):
        query = prefixes + "SELECT ?p WHERE { ?p y:wasBornIn x:London . }"
        before = len(engine.query(query))
        result = engine.apply_update(
            prefixes + "INSERT DATA { x:David_Bowie y:wasBornIn x:London }"
        )
        assert result.inserted == 1 and result.changed
        assert len(engine.query(query)) == before + 1
        assert_indexes_exact(engine)

    def test_duplicate_insert_is_noop(self, engine, prefixes):
        update = prefixes + "INSERT DATA { x:Amy_Winehouse y:wasBornIn x:London }"
        result = engine.apply_update(update)
        assert result.inserted == 0 and not result.changed
        assert engine.data_version == 0

    def test_insert_new_vertices_and_attributes(self, engine, prefixes):
        engine.apply_update(
            prefixes
            + 'INSERT DATA { x:New_Place y:hasName "Fresh" . x:New_Place y:isPartOf x:England }'
        )
        rows = engine.query(prefixes + 'SELECT ?s WHERE { ?s y:hasName "Fresh" . }')
        assert len(rows) == 1
        assert_indexes_exact(engine)

    def test_reflexive_statement_round_trips(self, engine, prefixes):
        update = prefixes + "INSERT DATA { x:London y:sameAs x:London }"
        assert engine.apply_update(update).inserted == 1
        assert engine.apply_update(update).inserted == 0
        delete = prefixes + "DELETE DATA { x:London y:sameAs x:London }"
        assert engine.apply_update(delete).deleted == 1
        assert_indexes_exact(engine)


class TestDelete:
    def test_delete_removes_rows(self, engine, prefixes):
        query = prefixes + "SELECT ?p WHERE { ?p y:wasBornIn x:London . }"
        assert len(engine.query(query)) == 2
        result = engine.apply_update(
            prefixes + "DELETE DATA { x:Amy_Winehouse y:wasBornIn x:London }"
        )
        assert result.deleted == 1
        assert len(engine.query(query)) == 1
        assert_indexes_exact(engine)

    def test_delete_keeps_remaining_multi_edge_types(self, engine, prefixes):
        # Amy -> London carries {wasBornIn, diedIn}; deleting one keeps the other.
        engine.apply_update(prefixes + "DELETE DATA { x:Amy_Winehouse y:wasBornIn x:London }")
        still = engine.query(prefixes + "SELECT ?p WHERE { ?p y:diedIn x:London . }")
        assert len(still) == 1
        assert_indexes_exact(engine)

    def test_delete_missing_triple_is_noop(self, engine, prefixes):
        result = engine.apply_update(prefixes + "DELETE DATA { x:Never y:was x:Here }")
        assert result.deleted == 0 and not result.changed
        assert engine.data_version == 0

    def test_delete_attribute_triple(self, engine, prefixes):
        result = engine.apply_update(
            prefixes + 'DELETE DATA { x:Music_Band y:foundedIn "1994" }'
        )
        assert result.deleted == 1
        rows = engine.query(prefixes + 'SELECT ?b WHERE { ?b y:foundedIn "1994" . }')
        assert len(rows) == 0
        assert_indexes_exact(engine)

    def test_statistics_track_triple_count(self, engine, prefixes):
        assert engine.statistics()["triples"] == 16
        engine.apply_update(prefixes + "DELETE DATA { x:Amy_Winehouse y:wasBornIn x:London }")
        assert engine.statistics()["triples"] == 15
        engine.apply_update(prefixes + "INSERT DATA { x:Amy_Winehouse y:wasBornIn x:London }")
        assert engine.statistics()["triples"] == 16


class TestCacheInvalidation:
    def test_plan_cache_cleared_on_change(self, engine, prefixes):
        from repro.server import LRUCache

        engine.plan_cache = LRUCache(16)
        query = prefixes + "SELECT ?p WHERE { ?p y:flewTo x:Mars . }"
        # The predicate is unknown, so the cached plan is unsatisfiable.
        assert len(engine.query(query)) == 0
        assert len(engine.plan_cache) == 1
        engine.apply_update(prefixes + "INSERT DATA { x:Amy_Winehouse y:flewTo x:Mars }")
        # A stale plan would still answer 0 rows; invalidation fixes it.
        assert len(engine.query(query)) == 1

    def test_count_consistent_after_update(self, engine, prefixes):
        query = prefixes + "SELECT ?p WHERE { ?p y:wasBornIn x:London . }"
        engine.apply_update(prefixes + "INSERT DATA { x:David_Bowie y:wasBornIn x:London }")
        assert engine.count(query) == len(engine.query(query)) == 3

    def test_data_version_increments_per_changing_batch(self, engine, prefixes):
        assert engine.data_version == 0
        engine.apply_update(prefixes + "INSERT DATA { x:A y:p x:B . x:B y:p x:C }")
        assert engine.data_version == 1
        engine.apply_update(prefixes + "DELETE DATA { x:Nothing y:here x:Atall }")
        assert engine.data_version == 1


class TestLoadOperation:
    def test_load_ntriples_file(self, engine, tmp_path):
        extra = tmp_path / "extra.nt"
        extra.write_text(
            f"<{E}s1> <{E}p> <{E}o1> .\n<{E}s2> <{E}p> <{E}o2> .\n", encoding="utf-8"
        )
        result = engine.apply_update(f"LOAD <file://{extra}>")
        assert result.inserted == 2
        rows = engine.query(f"SELECT ?s WHERE {{ ?s <{E}p> ?o . }}")
        assert len(rows) == 2
        assert_indexes_exact(engine)

    def test_load_missing_file_raises(self, engine, tmp_path):
        with pytest.raises(UpdateError, match="LOAD"):
            engine.apply_update(f"LOAD <file://{tmp_path}/absent.nt>")

    def test_load_silent_swallows_errors(self, engine, tmp_path):
        result = engine.apply_update(f"LOAD SILENT <file://{tmp_path}/absent.nt>")
        assert result.inserted == 0 and result.operations == 1

    def test_load_relative_path_uses_base_dir(self, engine, tmp_path):
        (tmp_path / "rel.nt").write_text(f"<{E}s> <{E}p> <{E}o> .\n", encoding="utf-8")
        result = engine.apply_update("LOAD <rel.nt>", base_dir=tmp_path)
        assert result.inserted == 1


class TestLoadErrorPaths:
    """LOAD failures must raise typed errors and leave no partial mutation."""

    def _snapshot(self, engine):
        return (
            engine.data.triple_count,
            engine.data_version,
            set(engine.data.graph.edges()),
        )

    def test_missing_file_raises_update_error_without_mutation(self, engine, tmp_path, prefixes):
        before = self._snapshot(engine)
        with pytest.raises(UpdateError, match="LOAD"):
            engine.apply_update(f"LOAD <file://{tmp_path}/absent.nt>")
        assert self._snapshot(engine) == before

    def test_unparseable_payload_raises_update_error_without_mutation(self, engine, tmp_path):
        garbled = tmp_path / "garbled.nt"
        garbled.write_text("<http://e/s> not-ntriples-at-all\n", encoding="utf-8")
        before = self._snapshot(engine)
        with pytest.raises(UpdateError, match="LOAD"):
            engine.apply_update(f"LOAD <file://{garbled}>")
        assert self._snapshot(engine) == before

    def test_unknown_format_raises_update_error(self, engine, tmp_path):
        payload = tmp_path / "data.xml"
        payload.write_text("<rdf/>", encoding="utf-8")
        with pytest.raises(UpdateError, match="format"):
            engine.apply_update(f"LOAD <file://{payload}>")

    def test_failing_load_aborts_the_whole_chain(self, engine, prefixes, tmp_path):
        """Operations preceding a failing LOAD must not be half-applied."""
        before = self._snapshot(engine)
        update = (
            prefixes
            + "INSERT DATA { x:A y:isPartOf x:B } ; "
            + f"LOAD <file://{tmp_path}/absent.nt>"
        )
        with pytest.raises(UpdateError):
            engine.apply_update(update)
        assert self._snapshot(engine) == before

    def test_read_only_service_rejects_load_without_mutation(self, engine, tmp_path):
        from repro.server import EngineService, ServiceConfig, ServiceReadOnly

        extra = tmp_path / "extra.nt"
        extra.write_text(f"<{E}s1> <{E}p> <{E}o1> .\n", encoding="utf-8")
        service = EngineService(engine, ServiceConfig(read_only=True))
        before = self._snapshot(engine)
        with pytest.raises(ServiceReadOnly):
            service.update(f"LOAD <file://{extra}>")
        assert self._snapshot(engine) == before

    def test_silent_failure_does_not_bump_data_version(self, engine, tmp_path):
        before = self._snapshot(engine)
        result = engine.apply_update(f"LOAD SILENT <file://{tmp_path}/absent.nt>")
        assert result.inserted == 0 and not result.changed
        assert self._snapshot(engine) == before


class TestIndexGrowth:
    def test_matrix_grows_and_stays_exact_under_churn(self, prefixes):
        engine = AmberEngine.from_turtle("@prefix x: <http://e/> . x:a x:p x:b .")
        triples = [
            Triple(IRI(f"{E}s{i}"), IRI(f"{E}p{i % 3}"), IRI(f"{E}o{i % 7}"))
            for i in range(40)
        ]
        engine.insert_triples(triples)
        engine.delete_triples(triples[::2])
        assert_indexes_exact(engine)

    def test_insert_literal_only_vertex(self, prefixes):
        engine = AmberEngine.from_turtle("@prefix x: <http://e/> . x:a x:p x:b .")
        engine.insert_triples([Triple(IRI(E + "lonely"), IRI(E + "name"), Literal("L"))])
        rows = engine.query(f'SELECT ?s WHERE {{ ?s <{E}name> "L" . }}')
        assert len(rows) == 1
        assert_indexes_exact(engine)
