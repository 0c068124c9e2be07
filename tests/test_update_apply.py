"""Engine-level tests for dynamic updates and incremental index maintenance."""

import pytest

from index_exactness import assert_indexes_exact
from repro import AmberEngine, IRI, Literal, Triple, UpdateError
from repro.index.attribute_index import AttributeIndex
from repro.index.columnar import ColumnarEdges

X = "http://dbpedia.org/resource/"
Y = "http://dbpedia.org/ontology/"
E = "http://example.org/"


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


class TestMaintenanceCost:
    """Per-edge maintenance: counted with spies, never timed."""

    HUB_DEGREE = 2000

    @pytest.fixture()
    def hub_engine(self):
        hub = IRI(E + "hub")
        triples = [Triple(hub, IRI(E + "link"), IRI(f"{E}n{i}")) for i in range(self.HUB_DEGREE)]
        triples += [
            Triple(IRI(f"{E}n{i}"), IRI(f"{E}kind{i % 5}"), IRI(f"{E}n{i + 1}")) for i in range(50)
        ]
        return AmberEngine.from_triples(triples)

    @staticmethod
    def _spy(monkeypatch):
        calls = {"build": 0}
        build = ColumnarEdges._build

        def counting_build(self, *args):
            calls["build"] += 1
            return build(self, *args)

        monkeypatch.setattr(ColumnarEdges, "_build", counting_build)
        return calls

    def _untouched(self, engine, before, edge_type):
        current = engine.indexes.neighborhoods._arrays
        return [
            key for key, arrays in before.items() if key[0] != edge_type and current[key] is arrays
        ]

    @pytest.mark.parametrize("operation", ["INSERT", "DELETE"])
    def test_one_edge_on_a_hub_is_constant_work(self, hub_engine, monkeypatch, operation):
        engine = hub_engine
        link = engine.data.edge_type_id(IRI(E + "link"))
        target = "n7" if operation == "DELETE" else "n3"
        if operation == "INSERT":
            engine.apply_update(f"DELETE DATA {{ <{E}hub> <{E}link> <{E}{target}> }}")
        before = dict(engine.indexes.neighborhoods._arrays)
        calls = self._spy(monkeypatch)
        result = engine.apply_update(f"{operation} DATA {{ <{E}hub> <{E}link> <{E}{target}> }}")
        assert result.changed
        assert calls["build"] == 0
        others = [key for key in before if key[0] != link]
        assert self._untouched(engine, before, link) == others
        assert_indexes_exact(engine)

    def test_a_new_vertex_drops_no_cached_csr(self, hub_engine, monkeypatch):
        engine = hub_engine
        before = dict(engine.indexes.neighborhoods._arrays)
        calls = self._spy(monkeypatch)
        engine.apply_update(f'INSERT DATA {{ <{E}fresh> <{E}name> "new" }}')
        assert calls == {"build": 0}
        assert set(engine.indexes.neighborhoods._arrays) == set(before)
        current = engine.indexes.neighborhoods._arrays
        assert all(current[key] is arrays for key, arrays in before.items())
        engine.apply_update(f"INSERT DATA {{ <{E}fresh2> <{E}kind1> <{E}hub> }}")
        assert calls["build"] == 0
        kind1 = engine.data.edge_type_id(IRI(E + "kind1"))
        assert set(engine.indexes.neighborhoods._arrays) == set(before)
        others = [key for key in before if key[0] != kind1]
        assert self._untouched(engine, before, kind1) == others
        assert_indexes_exact(engine)

    def test_a_request_repairs_each_index_once(self, hub_engine, monkeypatch):
        """Every operation of a request queues its repair; A and N are patched once."""
        engine = hub_engine
        calls = {AttributeIndex: 0, ColumnarEdges: 0}
        for cls in calls:
            apply = cls.apply

            def counting_apply(self, *args, _apply=apply, _cls=cls):
                calls[_cls] += 1
                return _apply(self, *args)

            monkeypatch.setattr(cls, "apply", counting_apply)
        result = engine.apply_update(
            f'INSERT DATA {{ <{E}a> <{E}name> "A" . <{E}a> <{E}link> <{E}n1> . '
            f'<{E}b> <{E}name> "B" . <{E}b> <{E}kind2> <{E}hub> }} ; '
            f'DELETE DATA {{ <{E}b> <{E}name> "B" . <{E}hub> <{E}link> <{E}n9> }} ; '
            f'INSERT DATA {{ <{E}c> <{E}name> "C" }}'
        )
        assert (result.inserted, result.deleted, result.operations) == (5, 2, 3)
        assert calls == {AttributeIndex: 1, ColumnarEdges: 1}
        assert_indexes_exact(engine)
