"""Property-based rebuild equivalence for dynamic updates (hypothesis).

The central invariant of the mutation subsystem: after ANY interleaving of
inserts and deletes, the incrementally maintained engine is indistinguishable
from a from-scratch :class:`AmberEngine` build on the final triple set —
same query results, same counts, same index contents.  The query battery
also runs every few operations, so memoised attribute arrays and plans are
warm when later mutations arrive and a stale in-place patch would show.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from index_exactness import assert_indexes_exact
from repro import AmberEngine, IRI, Literal, Triple

E = "http://example.org/"

_entities = st.sampled_from([f"e{i}" for i in range(6)])
_predicates = st.sampled_from([f"p{i}" for i in range(3)])
# Literal values deliberately never collide with rendered IRIs, so the
# reflexive-statement attribute encoding stays injective.
_literals = st.sampled_from([f"lit{i}" for i in range(4)])


def _iri(name: str) -> IRI:
    return IRI(E + name)


_resource_triples = st.builds(
    lambda s, p, o: Triple(_iri(s), _iri(p), _iri(o)), _entities, _predicates, _entities
)
_literal_triples = st.builds(
    lambda s, p, v: Triple(_iri(s), _iri(p), Literal(v)), _entities, _predicates, _literals
)
_triples = st.one_of(_resource_triples, _literal_triples)

_initial = st.lists(_triples, max_size=20)
_ops = st.lists(st.tuples(st.sampled_from(["insert", "delete"]), _triples), max_size=40)
#: Like ``_ops`` plus ``drop``: delete the ``pick``-th present triple.  A
#: random delete rarely names a present triple, so without it deletes that
#: shrink a multi-edge or a posting list would almost never be drawn.
_churn = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "drop"]), _triples, st.integers(0, 63)),
    max_size=40,
)

#: Query battery covering every pattern shape the matcher distinguishes:
#: plain edges, paths, stars, literal attributes, constant subjects/objects,
#: DISTINCT projections and constants that may not exist in the data.
QUERIES = [
    f"SELECT ?x ?y WHERE {{ ?x <{E}p0> ?y . }}",
    f"SELECT ?x ?y ?z WHERE {{ ?x <{E}p0> ?y . ?y <{E}p1> ?z . }}",
    f"SELECT ?x WHERE {{ ?x <{E}p0> ?a . ?x <{E}p1> ?b . }}",
    f'SELECT ?x WHERE {{ ?x <{E}p1> "lit1" . }}',
    f'SELECT DISTINCT ?x WHERE {{ ?x <{E}p2> "lit0" . ?x <{E}p0> ?y . }}',
    f"SELECT ?x WHERE {{ <{E}e0> <{E}p0> ?x . }}",
    f"SELECT ?x WHERE {{ ?x <{E}p2> <{E}e1> . }}",
    f"SELECT DISTINCT ?x ?y WHERE {{ ?x <{E}p1> ?y . ?y <{E}p1> ?x . }}",
    f"SELECT ?x WHERE {{ ?x <{E}unknown> ?y . }}",
]

#: Run the battery after every this many operations to warm the caches.
WARM_EVERY = 5


@settings(max_examples=30, deadline=None)
@given(initial=_initial, ops=_churn)
def test_rebuild_equivalence(initial, ops):
    """Any insert/delete interleaving ends exactly at the from-scratch build."""
    unique_initial = list(dict.fromkeys(initial))
    engine = AmberEngine.from_triples(unique_initial)
    shadow = set(unique_initial)
    for step, (op, triple, pick) in enumerate(ops):
        if step % WARM_EVERY == 0:
            for query in QUERIES:
                engine.query(query)
        if op == "drop":
            if not shadow:
                continue
            triple = sorted(shadow, key=lambda t: t.n3())[pick % len(shadow)]
            op = "delete"
        if op == "insert":
            engine.insert_triples([triple])
            shadow.add(triple)
        else:
            engine.delete_triples([triple])
            shadow.discard(triple)

    fresh = AmberEngine.from_triples(sorted(shadow, key=lambda t: t.n3()))

    # Query-level equivalence over the whole battery.
    for query in QUERIES:
        incremental = engine.query(query)
        rebuilt = fresh.query(query)
        assert incremental.same_solutions(rebuilt), query
        assert engine.count(query) == fresh.count(query), query

    # The logical dataset agrees triple-for-triple.
    assert engine.statistics()["triples"] == fresh.statistics()["triples"] == len(shadow)

    # Index-level exactness against the engine's own (mutated) graph.
    assert_indexes_exact(engine)


@settings(max_examples=20, deadline=None)
@given(ops=_ops)
def test_delete_everything_leaves_empty_answers(ops):
    """Inserting then deleting the same triples yields no spurious answers."""
    triples = [triple for _, triple in ops]
    engine = AmberEngine.from_triples([])
    engine.insert_triples(triples)
    engine.delete_triples(triples)
    assert engine.statistics()["triples"] == 0
    for query in QUERIES:
        assert len(engine.query(query)) == 0, query
