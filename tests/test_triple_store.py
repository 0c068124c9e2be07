"""Unit tests for the in-memory triple store and its permutation indexes."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.rdf.dataset import TripleStore
from repro.rdf.terms import IRI, Literal, Triple

EX = "http://example.org/"


def t(s, p, o):
    obj = o if isinstance(o, Literal) else IRI(EX + o)
    return Triple(IRI(EX + s), IRI(EX + p), obj)


class TestMutation:
    def test_add_and_len(self):
        store = TripleStore()
        assert store.add(t("a", "p", "b"))
        assert len(store) == 1

    def test_duplicate_add_is_noop(self):
        store = TripleStore()
        store.add(t("a", "p", "b"))
        assert not store.add(t("a", "p", "b"))
        assert len(store) == 1

    def test_remove(self):
        store = TripleStore([t("a", "p", "b")])
        assert store.remove(t("a", "p", "b"))
        assert len(store) == 0
        assert not store.remove(t("a", "p", "b"))
        assert list(store.triples(IRI(EX + "a"), None, None)) == []

    def test_contains(self):
        store = TripleStore([t("a", "p", "b")])
        assert t("a", "p", "b") in store
        assert t("a", "p", "c") not in store


class TestPatternMatching:
    def setup_method(self):
        self.store = TripleStore(
            [
                t("a", "p", "b"),
                t("a", "p", "c"),
                t("a", "q", "b"),
                t("b", "p", "c"),
                t("c", "name", Literal("C")),
            ]
        )

    def test_fully_bound(self):
        assert len(list(self.store.triples(IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b")))) == 1
        assert len(list(self.store.triples(IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "z")))) == 0

    def test_subject_predicate(self):
        objects = {tr.object for tr in self.store.triples(IRI(EX + "a"), IRI(EX + "p"), None)}
        assert objects == {IRI(EX + "b"), IRI(EX + "c")}

    def test_predicate_object(self):
        subjects = {tr.subject for tr in self.store.triples(None, IRI(EX + "p"), IRI(EX + "c"))}
        assert subjects == {IRI(EX + "a"), IRI(EX + "b")}

    def test_subject_object(self):
        predicates = {tr.predicate for tr in self.store.triples(IRI(EX + "a"), None, IRI(EX + "b"))}
        assert predicates == {IRI(EX + "p"), IRI(EX + "q")}

    def test_single_component_patterns(self):
        assert len(list(self.store.triples(IRI(EX + "a"), None, None))) == 3
        assert len(list(self.store.triples(None, IRI(EX + "p"), None))) == 3
        assert len(list(self.store.triples(None, None, IRI(EX + "b")))) == 2

    def test_wildcard_all(self):
        assert len(list(self.store.triples())) == 5

    def test_count_matches_enumeration(self):
        patterns = [
            (IRI(EX + "a"), IRI(EX + "p"), None),
            (None, IRI(EX + "p"), IRI(EX + "c")),
            (None, IRI(EX + "p"), None),
            (None, None, None),
            (IRI(EX + "a"), None, IRI(EX + "b")),
        ]
        for s, p, o in patterns:
            assert self.store.count(s, p, o) == len(list(self.store.triples(s, p, o)))


class TestStatistics:
    def test_paper_dataset_statistics(self, paper_store):
        stats = paper_store.statistics()
        assert stats["triples"] == 16
        # 9 distinct IRIs appear as subject or resource object (v0..v8 in Fig. 1c).
        assert stats["vertices"] == 9
        # 13 resource-valued triples (3 of the 16 have literal objects).
        assert stats["edges"] == 13
        assert stats["edge_types"] == 9

    def test_literal_triples(self, paper_store):
        assert len(list(paper_store.literal_triples())) == 3

    def test_subjects_predicates_objects(self):
        store = TripleStore([t("a", "p", "b"), t("a", "name", Literal("A"))])
        assert store.subjects() == {IRI(EX + "a")}
        assert store.predicates() == {IRI(EX + "p"), IRI(EX + "name")}
        assert store.objects() == {IRI(EX + "b"), Literal("A")}


class TestLoading:
    def test_from_ntriples(self):
        doc = "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> <http://e/n> \"x\" .\n"
        store = TripleStore.from_ntriples(doc)
        assert len(store) == 2

    def test_from_turtle_binds_namespaces(self):
        store = TripleStore.from_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .")
        assert len(store) == 1
        assert store.namespaces.expand("ex:a") == IRI("http://e/a")


#: Builds an engine from a generated store and prints its edge-type ids and
#: the candidates one scalar BGP generates (both depend on the order in
#: which the store is walked).
_ID_PROBE = """
import json
from repro import AmberEngine
from repro.datasets import DbpediaGenerator
from repro.rdf.dataset import TripleStore
from repro.telemetry.record import start_record

O = "http://repro.example.org/ontology/"
store = TripleStore(DbpediaGenerator(entities_per_domain=120, seed=3).generate())
engine = AmberEngine.from_store(store, backend="scalar")
query = (
    f"SELECT ?p ?c ?r ?k WHERE {{ ?p <{O}person/birthPlace> ?c . "
    f"?p <{O}person/residence> ?r . ?c <{O}place/country> ?k . }}"
)
with start_record() as record:
    rows = len(engine.query(query))
edge_types = {str(iri): n for iri, n in engine.data.dictionaries.edge_types.items()}
print(json.dumps([edge_types, record.counters["candidates.generated"], rows]))
"""


class TestIterationOrder:
    def test_iteration_follows_insertion_order(self):
        triples = [t("c", "p", "a"), t("a", "p", "b"), t("b", "q", "c")]
        store = TripleStore(triples)
        store.add(t("a", "q", "a"))
        store.remove(t("a", "p", "b"))
        assert list(store) == [t("c", "p", "a"), t("b", "q", "c"), t("a", "q", "a")]

    def test_engine_ids_do_not_depend_on_the_hash_seed(self):
        source = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for seed in ("1", "8"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(source))
            completed = subprocess.run(
                [sys.executable, "-c", _ID_PROBE],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(json.loads(completed.stdout))
        (types_1, candidates_1, rows_1), (types_8, candidates_8, rows_8) = outputs
        assert types_1 == types_8
        assert candidates_1 == candidates_8
        assert rows_1 == rows_8 > 0
