"""Property-based shard equivalence under update interleavings (hypothesis).

The cluster invariant extended to dynamic data: after ANY interleaving of
inserts and deletes, routed triple-by-triple to the owning shards with
halo replication maintained incrementally, the sharded engine answers
every query of the battery with exactly the multiset a single-process
engine produces — and its shards are byte-for-byte what a fresh partition
of the final graph would build.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_exactness import assert_indexes_exact
from repro import AmberEngine, IRI, Literal, Triple
from repro.cluster import ShardedEngine, partition_data

pytestmark = pytest.mark.cluster

E = "http://example.org/"

_entities = st.sampled_from([f"e{i}" for i in range(6)])
_predicates = st.sampled_from([f"p{i}" for i in range(3)])
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
#: ``drop`` deletes the ``pick``-th present triple: a random delete rarely
#: names a present one, so shrinking multi-edges would seldom be drawn.
_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "drop"]), _triples, st.integers(0, 63)),
    max_size=40,
)

#: Query battery covering the shapes the scatter–gather path distinguishes:
#: single stars, chains that need star joins, satellites with attributes,
#: IRI-constrained leaves (their own stars), DISTINCT and dead constants.
QUERIES = [
    f"SELECT ?x ?y WHERE {{ ?x <{E}p0> ?y . }}",
    f"SELECT ?x ?y ?z WHERE {{ ?x <{E}p0> ?y . ?y <{E}p1> ?z . }}",
    f"SELECT ?x ?a ?b WHERE {{ ?x <{E}p0> ?a . ?x <{E}p1> ?b . }}",
    f'SELECT ?x WHERE {{ ?x <{E}p1> "lit1" . }}',
    f'SELECT DISTINCT ?x WHERE {{ ?x <{E}p2> "lit0" . ?x <{E}p0> ?y . }}',
    f"SELECT ?x WHERE {{ <{E}e0> <{E}p0> ?x . }}",
    f"SELECT ?x WHERE {{ ?x <{E}p2> <{E}e1> . }}",
    f"SELECT ?x ?y WHERE {{ ?x <{E}p1> ?y . ?y <{E}p1> ?x . }}",
    f'SELECT ?x ?y WHERE {{ ?x <{E}p0> ?y . ?y <{E}p2> "lit2" . }}',
    f"SELECT ?x ?y ?z WHERE {{ ?x <{E}p0> ?y . ?z <{E}p1> ?y . ?x <{E}p2> <{E}e2> . }}",
    f"SELECT ?x WHERE {{ ?x <{E}unknown> ?y . }}",
]

SHARD_COUNT = 3
#: Run the battery on the cluster after every this many operations.
WARM_EVERY = 5


def _multiset(engine, query) -> Counter:
    return Counter(
        tuple(sorted(row.items(), key=lambda kv: kv[0].name)) for row in engine.query(query).rows
    )


@settings(max_examples=60, deadline=None)
@given(initial=_initial, ops=_ops)
def test_sharded_engine_tracks_single_engine(initial, ops):
    """Any graph/update interleaving keeps the cluster equal to one engine."""
    single = AmberEngine.from_triples(dict.fromkeys(initial))
    sharded = ShardedEngine.from_sharded_data(
        partition_data(AmberEngine.from_triples(dict.fromkeys(initial)).data, SHARD_COUNT)
    )

    shadow = set(initial)
    for step, (action, triple, pick) in enumerate(ops):
        if step % WARM_EVERY == 0:
            # Warm the shards' memoised attribute arrays and plans so that
            # later mutations have cached state to keep exact.
            for query in QUERIES:
                sharded.query(query)
        if action == "drop":
            if not shadow:
                continue
            triple = sorted(shadow, key=lambda t: t.n3())[pick % len(shadow)]
            action = "delete"
        if action == "insert":
            assert single.insert_triples([triple]) == sharded.insert_triples([triple])
            shadow.add(triple)
        else:
            assert single.delete_triples([triple]) == sharded.delete_triples([triple])
            shadow.discard(triple)

    assert single.data.triple_count == sharded.data.triple_count
    assert single.statistics() == sharded.statistics()
    for query in QUERIES:
        assert _multiset(single, query) == _multiset(sharded, query), query
        assert single.count(query) == sharded.count(query), query

    # Rebuild equivalence of the shards themselves: incremental routing and
    # halo maintenance land exactly where a fresh partition would.
    fresh = partition_data(single.data, SHARD_COUNT)
    assert fresh.owner == sharded.owner
    for maintained, rebuilt in zip(sharded.shards, fresh.shards):
        assert set(maintained.data.graph.edges()) == set(rebuilt.graph.edges())
        for vertex in rebuilt.graph.vertices():
            assert maintained.data.graph.attributes(vertex) == rebuilt.graph.attributes(vertex)
        assert maintained.data.triple_count == rebuilt.triple_count
        assert_indexes_exact(maintained)
