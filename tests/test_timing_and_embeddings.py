"""Unit tests for the shared deadline, error types and embedding expansion."""

import time

import pytest

from repro.amber.embeddings import combine_component_bindings, solution_to_bindings
from repro.amber.matching import ComponentSolution
from repro.errors import QueryTimeout, ReproError, UnsupportedQueryError
from repro.multigraph.builder import build_data_multigraph
from repro.multigraph.query_graph import build_query_multigraph
from repro.rdf.terms import IRI, Triple
from repro.sparql.bindings import Binding
from repro.sparql.algebra import Variable
from repro.sparql.parser import parse_sparql
from repro.timing import Deadline


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        deadline.check()
        assert not deadline.expired

    def test_expired_deadline_raises(self):
        deadline = Deadline(0.0)
        time.sleep(0.001)
        assert deadline.expired
        with pytest.raises(QueryTimeout):
            deadline.check()

    def test_error_hierarchy(self):
        assert issubclass(QueryTimeout, ReproError)
        assert issubclass(UnsupportedQueryError, ReproError)


class TestComponentSolution:
    def test_embedding_count_is_product_of_satellite_sets(self):
        solution = ComponentSolution(core={0: 10}, satellites={1: {20, 21}, 2: {30, 31, 32}})
        assert solution.embedding_count() == 6
        assert len(list(solution.embeddings())) == 6

    def test_embeddings_include_core_assignment(self):
        solution = ComponentSolution(core={0: 10, 3: 13}, satellites={1: {20}})
        (embedding,) = list(solution.embeddings())
        assert embedding == {0: 10, 3: 13, 1: 20}

    def test_no_satellites_yields_single_embedding(self):
        solution = ComponentSolution(core={0: 7})
        assert list(solution.embeddings()) == [{0: 7}]
        assert solution.embedding_count() == 1


class TestEmbeddingTranslation:
    def _setup(self):
        ex = "http://example.org/"
        triples = [
            Triple(IRI(ex + "a"), IRI(ex + "p"), IRI(ex + "b")),
            Triple(IRI(ex + "a"), IRI(ex + "p"), IRI(ex + "c")),
        ]
        data = build_data_multigraph(triples)
        query = parse_sparql(f"SELECT * WHERE {{ ?x <{ex}p> ?y . }}")
        qgraph = build_query_multigraph(query, data)
        return data, qgraph, ex

    def test_solution_to_bindings_uses_inverse_vertex_mapping(self):
        data, qgraph, ex = self._setup()
        x = qgraph.vertex_id(Variable("x"))
        y = qgraph.vertex_id(Variable("y"))
        a = data.vertex_id(IRI(ex + "a"))
        b = data.vertex_id(IRI(ex + "b"))
        c = data.vertex_id(IRI(ex + "c"))
        solution = ComponentSolution(core={x: a}, satellites={y: {b, c}})
        rows = set(solution_to_bindings(solution, qgraph, data))
        assert rows == {
            Binding({Variable("x"): IRI(ex + "a"), Variable("y"): IRI(ex + "b")}),
            Binding({Variable("x"): IRI(ex + "a"), Variable("y"): IRI(ex + "c")}),
        }

    def test_combine_component_bindings_cross_product(self):
        left = [
            Binding({Variable("a"): IRI("http://e/1")}),
            Binding({Variable("a"): IRI("http://e/2")}),
        ]
        right = [Binding({Variable("b"): IRI("http://e/3")})]
        combined = list(combine_component_bindings([left, right]))
        assert len(combined) == 2
        assert all(Variable("a") in row and Variable("b") in row for row in combined)

    def test_combine_component_bindings_empty_input(self):
        assert list(combine_component_bindings([])) == [Binding({})]

    def test_combine_component_bindings_drops_conflicts(self):
        shared = Variable("s")
        left = [Binding({shared: IRI("http://e/1")})]
        right = [Binding({shared: IRI("http://e/2")})]
        assert list(combine_component_bindings([left, right])) == []
