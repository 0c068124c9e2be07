"""The MatchBackend API: resolution, vectorized/scalar parity, fast paths.

The pluggable backend contract: ``resolve_backend`` picks an
implementation, every engine construction path accepts ``backend=``, and
the vectorized columnar core must be *row-for-row* identical to the
scalar recursion — same rows, same order, same counts — including after
incremental updates (the posting arrays are maintained, not rebuilt) and
when the frontier overflows its memory budget and falls back mid-query.
"""

from __future__ import annotations

import pytest

from repro import AmberEngine, IRI, Literal, Triple, TripleStore
from repro.amber.backend import BACKEND_CHOICES, ScalarBackend, resolve_backend
from repro.amber.engine import EXECUTE_MODES, QueryOutcome
from repro.amber.matching import MatcherConfig
from repro.sparql.bindings import Binding, ResultSet
from repro.sparql.algebra import Variable

E = "http://e/"


def _iri(name: str) -> IRI:
    return IRI(E + name)


def _ring_store(n: int = 8) -> TripleStore:
    """A dense little multigraph: ring + chords + tag attributes."""
    store = TripleStore()
    for i in range(n):
        store.add(Triple(_iri(f"n{i}"), _iri("p0"), _iri(f"n{(i + 1) % n}")))
        store.add(Triple(_iri(f"n{i}"), _iri("p1"), _iri(f"n{(i + 3) % n}")))
        store.add(Triple(_iri(f"n{i}"), _iri("tag"), Literal("even" if i % 2 == 0 else "odd")))
    return store


QUERIES = [
    f"SELECT ?a ?b WHERE {{ ?a <{E}p0> ?b . }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{E}p0> ?b . ?b <{E}p0> ?c . }}",
    f'SELECT ?a ?b WHERE {{ ?a <{E}p0> ?b . ?a <{E}tag> "even" . }}',
    f"SELECT ?a ?b ?c WHERE {{ ?a <{E}p0> ?b . ?a <{E}p1> ?c . ?b <{E}p1> ?c . }}",
    f"SELECT ?a WHERE {{ ?a <{E}p0> <{E}n1> . }}",
    f'SELECT ?a ?b WHERE {{ ?a <{E}p1> ?b . FILTER(REGEX(?t, "ev|od")) . ?a <{E}tag> ?t . }}',
]


class TestResolveBackend:
    def test_choices_cover_the_registry(self):
        assert BACKEND_CHOICES == ("scalar", "vectorized")

    def test_names_resolve_to_their_backend(self):
        assert resolve_backend("scalar").name == "scalar"
        assert resolve_backend("vectorized").name == "vectorized"

    def test_vectorized_is_the_default(self):
        assert resolve_backend(None).name == "vectorized"
        assert resolve_backend().name == "vectorized"

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown match backend"):
            resolve_backend("gpu")

    def test_backend_instances_pass_through(self):
        backend = ScalarBackend()
        assert resolve_backend(backend) is backend


class TestBackendParity:
    """The two backends must be indistinguishable through the engine API."""

    @pytest.fixture()
    def engines(self):
        store = _ring_store()
        return (
            AmberEngine.from_store(store, backend="scalar"),
            AmberEngine.from_store(store, backend="vectorized"),
        )

    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_row_sequences(self, engines, query):
        scalar, vectorized = engines
        assert scalar.match_backend == "scalar"
        assert vectorized.match_backend == "vectorized"
        assert list(scalar.query(query).rows) == list(vectorized.query(query).rows)

    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_counts_and_ask(self, engines, query):
        scalar, vectorized = engines
        assert scalar.count(query) == vectorized.count(query)
        assert scalar.ask(query) == vectorized.ask(query)

    def test_limit_offset_and_distinct(self, engines):
        scalar, vectorized = engines
        for suffix in ("LIMIT 3", "OFFSET 2", "LIMIT 2 OFFSET 3"):
            query = f"SELECT ?a ?b WHERE {{ ?a <{E}p0> ?b . }} {suffix}"
            assert list(scalar.query(query).rows) == list(vectorized.query(query).rows)
            assert scalar.count(query) == vectorized.count(query)
        distinct = f"SELECT DISTINCT ?a WHERE {{ ?a <{E}p0> ?b . }}"
        assert list(scalar.query(distinct).rows) == list(vectorized.query(distinct).rows)

    def test_small_max_solutions_uses_the_scalar_fallback(self, engines):
        scalar, vectorized = engines
        query = QUERIES[1]
        assert list(scalar.query(query, max_solutions=2).rows) == list(
            vectorized.query(query, max_solutions=2).rows
        )

    def test_parity_survives_incremental_updates(self, engines):
        """Posting arrays are maintained under UPDATE, never served stale."""
        scalar, vectorized = engines
        update = (
            f'INSERT DATA {{ <{E}n0> <{E}p0> <{E}n5> . <{E}n9> <{E}p0> <{E}n0> . '
            f'<{E}n9> <{E}tag> "even" . }} ; '
            f"DELETE DATA {{ <{E}n1> <{E}p0> <{E}n2> . }}"
        )
        scalar.apply_update(update)
        vectorized.apply_update(update)
        for query in QUERIES:
            assert list(scalar.query(query).rows) == list(vectorized.query(query).rows)

    def test_frontier_overflow_falls_back_to_scalar(self, engines, monkeypatch):
        from repro.amber import vectorized as vec

        scalar, vectorized = engines
        monkeypatch.setattr(vec, "MAX_EXPANSION", 1)
        for query in QUERIES:
            assert list(scalar.query(query).rows) == list(vectorized.query(query).rows)

    def test_cardinality_ordering_agrees(self):
        store = _ring_store()
        config = MatcherConfig(ordering="cardinality")
        scalar = AmberEngine.from_store(store, config=config, backend="scalar")
        vectorized = AmberEngine.from_store(store, config=config, backend="vectorized")
        for query in QUERIES:
            assert scalar.query(query).as_multiset() == vectorized.query(query).as_multiset()

    def test_columnar_bindings_matches_the_scalar_expansion(self):
        """The factored row expansion equals the per-solution one, in order."""
        from repro.amber.embeddings import columnar_bindings, component_bindings
        from repro.multigraph.query_graph import QueryMultigraph

        engine = AmberEngine.from_store(_ring_store(), backend="vectorized")
        checked = 0
        for query in QUERIES:
            _, plan = engine.prepare(query)
            if not isinstance(plan, QueryMultigraph):
                continue  # FILTER queries compile to the algebra plan
            checked += 1
            batch = engine._columnar_batch(plan, None)
            assert batch is not None, query
            factored = list(columnar_bindings(batch, plan, engine.data))
            scalar = list(component_bindings(batch.iter_solutions(), plan, engine.data))
            assert factored == scalar
        assert checked, "no plain-BGP query exercised the columnar expansion"

    def test_backend_setter_rebuilds_the_matcher(self):
        engine = AmberEngine.from_store(_ring_store(), backend="scalar")
        before = engine.query(QUERIES[0]).as_multiset()
        engine.match_backend = "vectorized"
        assert engine.match_backend == "vectorized"
        assert engine.query(QUERIES[0]).as_multiset() == before


class TestExecuteOutcome:
    def test_modes_are_documented(self):
        assert EXECUTE_MODES == ("select", "count", "ask", "explain", "analyze")

    def test_execute_dispatches_every_mode(self, paper_engine, prefixes):
        query = f"{prefixes}SELECT ?p WHERE {{ ?p y:wasBornIn x:London . }}"
        select = paper_engine.execute(query)
        assert select.mode == "select" and len(select.result) == 2
        assert select.value is select.result
        count = paper_engine.execute(query, mode="count")
        assert count == QueryOutcome("count", count=2) and count.value == 2
        ask = paper_engine.execute(query, mode="ask")
        assert ask.boolean is True and ask.value is True
        explain = paper_engine.execute(query, mode="explain")
        assert explain.plan["match_backend"] == paper_engine.match_backend

    def test_unknown_mode_raises(self, paper_engine, prefixes):
        query = f"{prefixes}SELECT ?p WHERE {{ ?p y:wasBornIn x:London . }}"
        with pytest.raises(ValueError, match="unknown execute mode"):
            paper_engine.execute(query, mode="describe")

    def test_wrappers_match_execute(self, paper_engine, prefixes):
        query = f"{prefixes}SELECT ?p WHERE {{ ?p y:wasBornIn ?c . }}"
        assert paper_engine.query(query).as_multiset() == (
            paper_engine.execute(query).result.as_multiset()
        )
        assert paper_engine.count(query) == paper_engine.execute(query, mode="count").count
        assert paper_engine.ask(query) is paper_engine.execute(query, mode="ask").boolean


class TestLazyResultSet:
    def test_len_without_materialization(self):
        calls = []

        def factory():
            calls.append(True)
            return [Binding({Variable("a"): _iri("n0")})]

        result = ResultSet.lazy([Variable("a")], 1, factory)
        assert len(result) == 1 and not calls
        assert list(result.rows) == [Binding({Variable("a"): _iri("n0")})]
        assert calls == [True]
        # A second access reuses the materialized rows.
        assert list(result.rows) == [Binding({Variable("a"): _iri("n0")})]
        assert calls == [True]


class TestPostingArrays:
    def test_attribute_postings_track_mutations(self):
        engine = AmberEngine.from_store(_ring_store(), backend="vectorized")
        attrs = engine.indexes.attributes
        attribute = engine.data.attribute_id(_iri("tag"), Literal("even"))
        vertex = engine.data.vertex_id(_iri("n0"))
        assert vertex in attrs.posting_array(attribute).tolist()
        engine.apply_update(f'DELETE DATA {{ <{E}n0> <{E}tag> "even" . }}')
        after = attrs.posting_array(attribute)
        assert vertex not in after.tolist()
        # The memoized array always mirrors the maintained posting set.
        assert after.tolist() == sorted(attrs.vertices_with(attribute))
        engine.apply_update(f'INSERT DATA {{ <{E}n0> <{E}tag> "even" . }} ')
        assert vertex in attrs.posting_array(attribute).tolist()

    def test_columnar_edges_invalidate_on_edge_mutations(self):
        engine = AmberEngine.from_store(_ring_store(), backend="vectorized")
        query = f"SELECT ?a ?b WHERE {{ ?a <{E}p0> ?b . }}"
        before = engine.count(query)
        engine.apply_update(f"INSERT DATA {{ <{E}new> <{E}p0> <{E}n0> . }}")
        assert engine.count(query) == before + 1
        engine.apply_update(f"DELETE DATA {{ <{E}new> <{E}p0> <{E}n0> . }}")
        assert engine.count(query) == before
