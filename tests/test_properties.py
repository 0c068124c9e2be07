"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AmberEngine
from repro.baselines import NestedLoopEngine
from repro.index.synopsis import data_synopsis, dominates, query_synopsis, signature_of
from repro.multigraph.builder import build_data_multigraph
from repro.rdf.dataset import TripleStore
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.algebra import SelectQuery, TriplePattern, Variable
from repro.sparql.bindings import Binding

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_entity_names = st.sampled_from([f"e{i}" for i in range(8)])
_predicate_names = st.sampled_from([f"p{i}" for i in range(4)])
_literal_values = st.text(
    alphabet=string.ascii_letters + string.digits + " ", min_size=0, max_size=8
)


def _iri(name: str) -> IRI:
    return IRI(f"http://example.org/{name}")


_resource_triples = st.builds(
    lambda s, p, o: Triple(_iri(s), _iri(p), _iri(o)),
    _entity_names,
    _predicate_names,
    _entity_names,
).filter(lambda t: t.subject != t.object)

_literal_triples = st.builds(
    lambda s, p, v: Triple(_iri(s), _iri(p), Literal(v)),
    _entity_names,
    _predicate_names,
    _literal_values,
)

_triples = st.lists(st.one_of(_resource_triples, _literal_triples), min_size=1, max_size=30)

#: Triples inserted after the build: mostly fresh ``n*`` vertices, so the
#: synopsis matrix has to append rows (and double its capacity).
_grown_names = st.sampled_from([f"n{i}" for i in range(40)])
_growth_triples = st.lists(
    st.builds(
        lambda s, p, o: Triple(_iri(s), _iri(p), _iri(o)),
        _grown_names,
        _predicate_names,
        st.one_of(_entity_names, _grown_names),
    ).filter(lambda t: t.subject != t.object),
    max_size=40,
)

#: One side of a query vertex signature: multi-edges over edge-type ids,
#: including ids no data edge carries.
_probe_side = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3), max_size=3
)


# --------------------------------------------------------------------------- #
# N-Triples round trip
# --------------------------------------------------------------------------- #
class TestNTriplesRoundTrip:
    @given(_triples)
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, triples):
        assert list(parse_ntriples(serialize_ntriples(triples))) == triples


# --------------------------------------------------------------------------- #
# Triple store pattern matching vs. brute force
# --------------------------------------------------------------------------- #
class TestTripleStoreInvariants:
    @given(_triples, st.sampled_from([f"e{i}" for i in range(8)]), _predicate_names)
    @settings(max_examples=60, deadline=None)
    def test_pattern_matching_matches_naive_filter(self, triples, entity, predicate):
        store = TripleStore(triples)
        unique = set(triples)
        subject, pred = _iri(entity), _iri(predicate)
        by_subject = {t for t in unique if t.subject == subject}
        assert set(store.triples(subject, None, None)) == by_subject
        assert set(store.triples(None, pred, None)) == {t for t in unique if t.predicate == pred}
        assert set(store.triples(subject, pred, None)) == {
            t for t in unique if t.subject == subject and t.predicate == pred
        }
        assert len(store) == len(unique)

    @given(_triples)
    @settings(max_examples=40, deadline=None)
    def test_remove_restores_consistency(self, triples):
        store = TripleStore(triples)
        target = triples[0]
        store.remove(target)
        assert target not in store
        assert set(store.triples()) == set(triples) - {target}


# --------------------------------------------------------------------------- #
# Multigraph transformation invariants
# --------------------------------------------------------------------------- #
class TestMultigraphInvariants:
    @given(_triples)
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_between_edges_and_attributes(self, triples):
        unique = set(triples)
        data = build_data_multigraph(unique)
        resources = [t for t in unique if not isinstance(t.object, Literal)]
        resource = {t for t in resources if t.subject != t.object}
        reflexive = {t for t in resources if t.subject == t.object}
        literal = {t for t in unique if isinstance(t.object, Literal)}
        assert data.graph.multi_edge_count() == len(resource)
        # Every literal triple and reflexive triple becomes a vertex attribute.
        total_attribute_incidences = sum(
            len(data.graph.attributes(v)) for v in data.graph.vertices()
        )
        expected = {(t.subject, t.predicate, t.object) for t in literal | reflexive}
        assert total_attribute_incidences == len(expected)

    @given(_triples)
    @settings(max_examples=60, deadline=None)
    def test_every_resource_has_a_vertex_and_inverse_mapping_round_trips(self, triples):
        data = build_data_multigraph(set(triples))
        for triple in triples:
            subject_id = data.vertex_id(triple.subject)
            assert subject_id is not None
            assert data.entity(subject_id) == triple.subject


# --------------------------------------------------------------------------- #
# Synopsis dominance (Lemma 1) and the synopsis matrix
# --------------------------------------------------------------------------- #
class TestSynopsisInvariants:
    @given(_triples)
    @settings(max_examples=40, deadline=None)
    def test_dominance_is_reflexive_on_data_synopses(self, triples):
        data = build_data_multigraph(set(triples))
        for vertex in data.graph.vertices():
            synopsis = data_synopsis(signature_of(data.graph, vertex))
            assert dominates(synopsis, synopsis)

    @given(_triples)
    @settings(max_examples=40, deadline=None)
    def test_own_signature_is_always_a_candidate(self, triples):
        """A data vertex must match a query vertex with its own signature (Lemma 1)."""
        data = build_data_multigraph(set(triples))
        graph = data.graph
        for vertex in graph.vertices():
            incoming = [frozenset(t) for t in graph.in_neighbors(vertex).values()]
            outgoing = [frozenset(t) for t in graph.out_neighbors(vertex).values()]
            query = query_synopsis(incoming, outgoing)
            assert dominates(query, data_synopsis(signature_of(graph, vertex)))

    @given(_triples, _growth_triples, st.lists(st.tuples(_probe_side, _probe_side), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matrix_candidates_match_lemma1_scan(self, initial, grown, probes):
        """The dominance mask equals a brute-force Lemma-1 scan, also after growth."""
        engine = AmberEngine.from_triples(dict.fromkeys(initial))
        engine.insert_triples(grown)
        engine.delete_triples(initial[::2])
        graph = engine.data.graph
        index = engine.indexes.signatures
        synopses = {v: data_synopsis(signature_of(graph, v)) for v in graph.vertices()}
        assert len(index) == len(synopses)
        # Every other vertex plus ids the index has never seen (a cluster halo).
        halo = {max(synopses) + offset for offset in (1, 2, 3)}
        members = set(sorted(synopses)[::2]) | halo
        for incoming, outgoing in [([], [])] + probes:
            query = query_synopsis(incoming, outgoing)
            expected = {v for v, fields in synopses.items() if dominates(query, fields)}
            found = index.candidates(incoming, outgoing)
            assert found == expected
            assert index.candidates_among(members, incoming, outgoing) == found & members


# --------------------------------------------------------------------------- #
# Binding algebra
# --------------------------------------------------------------------------- #
_bindings = st.dictionaries(
    st.sampled_from([Variable(f"v{i}") for i in range(5)]),
    st.sampled_from([_iri(f"e{i}") for i in range(4)]),
    max_size=4,
)


class TestBindingInvariants:
    @given(_bindings, _bindings)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_consistent(self, left, right):
        merged = Binding(left).merge(Binding(right))
        conflict = any(key in left and left[key] != value for key, value in right.items())
        if conflict:
            assert merged is None
        else:
            assert merged is not None
            assert dict(merged) == {**left, **right}

    @given(_bindings, _bindings)
    @settings(max_examples=100, deadline=None)
    def test_merge_commutes_on_agreement(self, left, right):
        ab = Binding(left).merge(Binding(right))
        ba = Binding(right).merge(Binding(left))
        assert (ab is None) == (ba is None)
        if ab is not None:
            assert ab == ba


# --------------------------------------------------------------------------- #
# End-to-end: AMbER agrees with the nested-loop oracle on random graphs
# --------------------------------------------------------------------------- #
_query_shapes = st.sampled_from(
    [
        # (patterns as (subject var index, predicate name, object var index or entity))
        [(0, "p0", 1)],
        [(0, "p0", 1), (1, "p1", 2)],
        [(0, "p0", 1), (0, "p1", 2)],
        [(0, "p0", 1), (1, "p1", 0)],
        [(0, "p0", 1), (1, "p1", 2), (2, "p2", 0)],
        [(0, "p0", 1), (0, "p1", 2), (0, "p2", 3)],
    ]
)


#: Resource-only graphs for the engine-equivalence property: object variables
#: bind resources in AMbER's multigraph model (literal objects appear in
#: queries only as constants), so the shared fragment excludes literal-valued
#: predicates reached through variables.
_resource_only_triples = st.lists(_resource_triples, min_size=1, max_size=30)


class TestEngineEquivalence:
    @given(_resource_only_triples, _query_shapes)
    @settings(max_examples=40, deadline=None)
    def test_amber_matches_nested_loop_oracle(self, triples, shape):
        store = TripleStore(set(triples))
        amber = AmberEngine.from_store(store)
        oracle = NestedLoopEngine(store)
        patterns = [
            TriplePattern(Variable(f"x{s}"), _iri(p), Variable(f"x{o}")) for s, p, o in shape
        ]
        query = SelectQuery(patterns=patterns)
        expected = oracle.query(query, timeout_seconds=30)
        actual = amber.query(query, timeout_seconds=30)
        assert actual.same_solutions(expected)
