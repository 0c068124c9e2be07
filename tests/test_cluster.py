"""Shard-equivalence tests for the cluster subsystem (repro.cluster).

The contract under test everywhere: a :class:`ShardedEngine` is
indistinguishable from a single :class:`AmberEngine` on the same triple
set — identical result multisets, counts and statistics — for any shard
count, mutation history and persistence round trip.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from index_exactness import assert_indexes_exact

from repro import AmberEngine, IRI, Literal, Triple, UpdateError
from repro.cluster import ShardedEngine, assign_owners, partition_data, plan_stars
from repro.datasets import LubmGenerator, WorkloadGenerator
from repro.index.attribute_index import AttributeIndex
from repro.index.synopsis import signature_of
from repro.server import EngineService, ServiceConfig
from repro.server.cli import build_arg_parser, build_service
from repro.storage import load_engine_auto, save_engine

pytestmark = pytest.mark.cluster

E = "http://example.org/"


def multiset(engine, query):
    """The result multiset of ``query``: row order is not part of the contract."""
    return Counter(
        tuple(sorted(row.items(), key=lambda kv: kv[0].name)) for row in engine.query(query).rows
    )


def assert_equivalent(single: AmberEngine, sharded: ShardedEngine, queries) -> None:
    for query in queries:
        assert multiset(single, query) == multiset(sharded, query), query
        assert single.count(query) == sharded.count(query), query
        assert single.ask(query) == sharded.ask(query), query
    assert single.statistics() == sharded.statistics()


@pytest.fixture(scope="module")
def paper_queries(prefixes):
    return [
        prefixes + "SELECT ?p WHERE { ?p y:wasBornIn ?c . }",
        prefixes + "SELECT ?p ?c ?l WHERE { ?p y:wasBornIn ?c . ?p y:livedIn ?l . }",
        prefixes + 'SELECT ?b WHERE { ?b y:foundedIn "1994" . }',
        prefixes + "SELECT ?p ?b WHERE { ?p y:wasPartOf ?b . ?b y:wasFormedIn x:London . }",
        prefixes + "SELECT ?x ?y WHERE { ?x y:isPartOf ?y . }",
        prefixes + "SELECT DISTINCT ?c WHERE { ?p y:wasBornIn ?c . ?p y:diedIn ?c . }",
        prefixes
        + "SELECT ?a ?b ?c WHERE { ?a y:wasBornIn ?b . ?b y:isPartOf ?c . ?a y:livedIn ?c . }",
        prefixes + 'SELECT ?s WHERE { ?s y:hasCapacityOf "90000" . }',
        prefixes + "SELECT ?a WHERE { ?a y:wasMarriedTo ?m . ?m y:livedIn x:United_States . }",
        prefixes + "SELECT ?x WHERE { ?x y:unknownPredicate ?y . }",
        prefixes + "SELECT ?x ?y WHERE { ?x y:isPartOf ?y . x:London y:hasStadium ?s . }",
    ]


# --------------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------------- #
class TestPartition:
    def test_ownership_is_a_partition(self, paper_engine):
        sharded = partition_data(paper_engine.data, 3)
        graph = paper_engine.data.graph
        assert set(sharded.owner) == set(graph.vertices())
        assert set(sharded.owner.values()) <= {0, 1, 2}

    def test_assignment_is_deterministic(self, paper_engine):
        first = assign_owners(paper_engine.data, 4)
        second = assign_owners(paper_engine.data, 4)
        assert first == second

    def test_owned_vertices_keep_their_full_neighborhood(self, paper_engine):
        sharded = partition_data(paper_engine.data, 3)
        graph = paper_engine.data.graph
        for vertex, shard in sharded.owner.items():
            local = sharded.shards[shard].graph
            # Signatures are multisets of multi-edges; tuple order follows
            # insertion order and is not part of the contract.
            mine, theirs = signature_of(local, vertex), signature_of(graph, vertex)
            assert Counter(mine.incoming) == Counter(theirs.incoming)
            assert Counter(mine.outgoing) == Counter(theirs.outgoing)
            assert local.out_neighbors(vertex) == graph.out_neighbors(vertex)
            assert local.in_neighbors(vertex) == graph.in_neighbors(vertex)

    def test_halo_vertices_carry_full_attribute_sets(self, paper_engine):
        sharded = partition_data(paper_engine.data, 3)
        graph = paper_engine.data.graph
        for shard in sharded.shards:
            for vertex in shard.graph.vertices():
                assert shard.graph.attributes(vertex) == graph.attributes(vertex)

    def test_hubs_are_spread_by_load(self):
        # One hub star per shard-multiple: a pure modulo assignment would
        # pile all hubs with id 0 mod N onto shard 0.
        triples = []
        for hub in range(4):
            centre = IRI(f"{E}hub{hub}")
            for spoke in range(30):
                triples.append(Triple(IRI(f"{E}spoke{hub}_{spoke}"), IRI(f"{E}p"), centre))
        engine = AmberEngine.from_triples(triples)
        owner = assign_owners(engine.data, 2, hub_threshold=10)
        hub_ids = [engine.data.vertex_id(IRI(f"{E}hub{i}")) for i in range(4)]
        placements = Counter(owner[vertex] for vertex in hub_ids)
        assert placements == Counter({0: 2, 1: 2})

    def test_single_shard_partition_is_the_whole_graph(self, paper_engine):
        sharded = partition_data(paper_engine.data, 1)
        graph = paper_engine.data.graph
        shard = sharded.shards[0].graph
        assert set(shard.vertices()) == set(graph.vertices())
        assert sharded.shards[0].triple_count == paper_engine.data.triple_count


# --------------------------------------------------------------------------- #
# star planning
# --------------------------------------------------------------------------- #
class TestStarPlanning:
    def test_every_vertex_is_root_or_private_leaf_exactly_once(self, paper_engine, prefixes):
        query = (
            prefixes
            + "SELECT ?a ?b ?c ?d WHERE { ?a y:wasBornIn ?b . ?b y:isPartOf ?c . "
            "?a y:livedIn ?c . ?a y:wasMarriedTo ?d . }"
        )
        _, qgraph = paper_engine.prepare(query, use_cache=False)
        for component in qgraph.connected_components():
            stars = plan_stars(qgraph, component)
            roots = [star.root for star in stars]
            privates = [leaf for star in stars for leaf in star.private]
            assert sorted(roots + privates) == sorted(component)
            assert len(set(roots)) == len(roots)
            covered = set()
            for star in stars:
                for leaf in star.leaves:
                    covered.add(frozenset((star.root, leaf)))
            edges = {
                frozenset((u, v))
                for u in component
                for v in qgraph.graph.neighbors(u)
            }
            assert edges <= covered


# --------------------------------------------------------------------------- #
# query parity
# --------------------------------------------------------------------------- #
class TestQueryParity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_paper_dataset_parity(self, paper_engine, paper_queries, shards):
        sharded = ShardedEngine.build(paper_engine.data, shards)
        assert_equivalent(paper_engine, sharded, paper_queries)

    def test_workload_parity_on_lubm(self):
        store = LubmGenerator(scale=1, students_per_department=10, seed=3).store()
        single = AmberEngine.from_store(store)
        sharded = ShardedEngine.build(single.data, 3)
        generator = WorkloadGenerator(store, seed=11)
        queries = [
            item.query
            for size in (4, 7)
            for item in generator.workload("star", size, 2) + generator.workload("complex", size, 2)
        ]
        assert_equivalent(single, sharded, queries)

    def test_queries_start_no_shard_threads(self, paper_engine, paper_queries):
        """Shards match on the request's thread: a query starts no thread."""
        before = set(threading.enumerate())
        with ShardedEngine.build(paper_engine.data, 3) as sharded:
            assert_equivalent(paper_engine, sharded, paper_queries)
            started = set(threading.enumerate()) - before
        assert not started, sorted(thread.name for thread in started)

    def test_close_is_a_no_op(self, paper_engine, paper_queries):
        """close() releases nothing, so the engine answers after it and after ``with``."""
        with ShardedEngine.build(paper_engine.data, 2) as sharded:
            pass
        sharded.close()
        sharded.close()
        assert_equivalent(paper_engine, sharded, paper_queries)

    def test_timeout_raises_query_timeout(self, paper_engine, prefixes):
        from repro import QueryTimeout

        sharded = ShardedEngine.build(paper_engine.data, 2)
        query = prefixes + "SELECT ?x ?y WHERE { ?x y:isPartOf ?y . }"
        with pytest.raises(QueryTimeout):
            sharded.query(query, timeout_seconds=-1.0)

    def test_max_solutions_caps_rows(self, paper_engine, prefixes):
        sharded = ShardedEngine.build(paper_engine.data, 2)
        query = prefixes + "SELECT ?p ?c WHERE { ?p y:wasBornIn ?c . }"
        assert len(sharded.query(query, max_solutions=1)) == 1

    def test_limit_returns_requested_rows(self, paper_engine, prefixes):
        sharded = ShardedEngine.build(paper_engine.data, 2)
        query = prefixes + "SELECT ?p WHERE { ?p y:wasBornIn ?c . } LIMIT 1"
        assert len(sharded.query(query)) == 1
        assert sharded.count(query) == paper_engine.count(query) == 1


# --------------------------------------------------------------------------- #
# mutation parity and halo maintenance
# --------------------------------------------------------------------------- #
class TestMutationParity:
    UPDATE = (
        "PREFIX x: <http://dbpedia.org/resource/> "
        "PREFIX y: <http://dbpedia.org/ontology/> "
        "INSERT DATA { x:NewTown y:isPartOf x:England . "
        "  x:Amy_Winehouse y:wasBornIn x:NewTown . "
        '  x:NewTown y:hasName "New Town" . } ; '
        "DELETE DATA { x:Amy_Winehouse y:diedIn x:London . } ; "
        "INSERT DATA { x:London y:isPartOf x:London }"
    )

    def _pair(self, paper_turtle, shards=3):
        single = AmberEngine.from_turtle(paper_turtle)
        sharded = ShardedEngine.build(AmberEngine.from_turtle(paper_turtle).data, shards)
        return single, sharded

    def test_update_counts_and_results_match(self, paper_turtle, paper_queries):
        single, sharded = self._pair(paper_turtle)
        mine = sharded.apply_update(self.UPDATE)
        theirs = single.apply_update(self.UPDATE)
        assert (mine.inserted, mine.deleted, mine.operations) == (
            theirs.inserted,
            theirs.deleted,
            theirs.operations,
        )
        assert sharded.data_version == single.data_version == 1
        assert_equivalent(single, sharded, paper_queries)

    def test_shards_match_a_fresh_partition_after_updates(self, paper_turtle):
        """Incremental routing must land exactly where a re-partition would."""
        single, sharded = self._pair(paper_turtle)
        single.apply_update(self.UPDATE)
        sharded.apply_update(self.UPDATE)
        # Delete an edge so a halo vertex loses its last anchor in one shard.
        victim = Triple(
            IRI("http://dbpedia.org/resource/Amy_Winehouse"),
            IRI("http://dbpedia.org/ontology/wasBornIn"),
            IRI("http://dbpedia.org/resource/NewTown"),
        )
        assert single.delete_triples([victim]) == sharded.delete_triples([victim]) == 1
        fresh = partition_data(single.data, sharded.shard_count)
        assert fresh.owner == sharded.owner
        for maintained, rebuilt in zip(sharded.shards, fresh.shards):
            assert set(maintained.data.graph.edges()) == set(rebuilt.graph.edges())
            halo_attrs = {
                vertex: maintained.data.graph.attributes(vertex)
                for vertex in maintained.data.graph.vertices()
                if maintained.data.graph.attributes(vertex)
            }
            rebuilt_attrs = {
                vertex: rebuilt.graph.attributes(vertex)
                for vertex in rebuilt.graph.vertices()
                if rebuilt.graph.attributes(vertex)
            }
            assert halo_attrs == rebuilt_attrs
            assert maintained.data.triple_count == rebuilt.triple_count

    def test_reinserted_edge_rehydrates_stripped_halo_attributes(self):
        """Delete–reinsert of a cross-shard edge must re-replicate halo attributes.

        Stripping a halo leaves the vertex in the shard graph (vertices are
        never removed), so re-halo detection must key on edge presence, not
        graph membership — otherwise the replica stays attribute-less and
        attribute-constrained satellites silently lose matches.
        """
        triples = [
            Triple(IRI(f"{E}e0"), IRI(f"{E}p0"), IRI(f"{E}e1")),
            Triple(IRI(f"{E}e1"), IRI(f"{E}name"), Literal("x")),
        ]
        single = AmberEngine.from_triples(triples)
        sharded = ShardedEngine.build(AmberEngine.from_triples(triples).data, 2)
        edge = triples[0]
        for engine in (single, sharded):
            assert engine.delete_triples([edge]) == 1
            assert engine.insert_triples([edge]) == 1
        query = f'SELECT ?x WHERE {{ ?x <{E}p0> ?y . ?y <{E}name> "x" . }}'
        assert multiset(single, query) == multiset(sharded, query)
        fresh = partition_data(single.data, 2)
        for maintained, rebuilt in zip(sharded.shards, fresh.shards):
            for vertex in rebuilt.graph.vertices():
                assert maintained.data.graph.attributes(vertex) == rebuilt.graph.attributes(vertex)

    def test_load_routes_to_shards(self, paper_turtle, tmp_path, prefixes):
        single, sharded = self._pair(paper_turtle)
        extra = tmp_path / "extra.nt"
        extra.write_text(
            f"<{E}a> <{E}p> <{E}b> .\n<{E}a> <{E}name> \"Anna\" .\n", encoding="utf-8"
        )
        update = f"LOAD <file://{extra}>"
        assert single.apply_update(update).inserted == sharded.apply_update(update).inserted == 2
        query = f"SELECT ?x WHERE {{ ?x <{E}p> <{E}b> . ?x <{E}name> \"Anna\" . }}"
        assert multiset(single, query) == multiset(sharded, query)

    def test_a_bulk_insert_patches_each_shard_attribute_index_once(self, monkeypatch):
        """Routing is per triple, but each shard's A is copied once per call."""
        base = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}p"), IRI(f"{E}v{i + 1}")) for i in range(20)]
        single = AmberEngine.from_triples(base)
        sharded = ShardedEngine.build(AmberEngine.from_triples(base).data, 2)
        bulk = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}name"), Literal(f"n{i % 4}")) for i in range(21)]
        bulk += [Triple(IRI(f"{E}v{i}"), IRI(f"{E}q"), IRI(f"{E}w{i}")) for i in range(0, 21, 3)]
        assert single.insert_triples(bulk) == len(bulk)
        calls = []
        apply = AttributeIndex.apply
        monkeypatch.setattr(
            AttributeIndex, "apply", lambda self, *args: calls.append(self) or apply(self, *args)
        )
        assert sharded.insert_triples(bulk) == len(bulk)
        assert len(calls) == len(set(map(id, calls))) <= sharded.shard_count
        for shard in sharded.shards:
            assert_indexes_exact(shard)
        query = f'SELECT ?x ?y WHERE {{ ?x <{E}p> ?y . ?y <{E}name> "n1" . ?x <{E}q> ?z . }}'
        assert multiset(single, query) == multiset(sharded, query)

    def test_each_changed_shard_commits_once_per_call(self):
        """Routing is per triple, but a shard's data_version moves once per call."""
        base = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}p"), IRI(f"{E}v{i + 1}")) for i in range(20)]
        sharded = ShardedEngine.build(AmberEngine.from_triples(base).data, 2)
        bulk = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}name"), Literal(f"n{i}")) for i in range(21)]
        bulk += [Triple(IRI(f"{E}v{i}"), IRI(f"{E}q"), IRI(f"{E}w{i}")) for i in range(21)]
        assert sharded.insert_triples(bulk + base) == len(bulk)
        assert sharded.data_version == 1
        assert [shard.data_version for shard in sharded.shards] == [1, 1]
        update = (
            f'DELETE DATA {{ <{E}v3> <{E}name> "n3" . <{E}v4> <{E}q> <{E}w4> }} ; '
            f"INSERT DATA {{ <{E}v5> <{E}q> <{E}w6> }}"
        )
        assert sharded.apply_update(update).changed
        assert sharded.data_version == 2
        assert all(shard.data_version <= 2 for shard in sharded.shards)
        assert sharded.insert_triples(base) == 0
        assert sharded.data_version == 2
        assert all(shard.data_version <= 2 for shard in sharded.shards)

    def test_failing_load_leaves_all_shards_untouched(self, paper_turtle, tmp_path):
        _, sharded = self._pair(paper_turtle)
        before = [shard.data.triple_count for shard in sharded.shards]
        update = (
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "PREFIX x: <http://dbpedia.org/resource/> "
            "INSERT DATA { x:A y:isPartOf x:B } ; "
            f"LOAD <file://{tmp_path}/absent.nt>"
        )
        with pytest.raises(UpdateError):
            sharded.apply_update(update)
        assert [shard.data.triple_count for shard in sharded.shards] == before
        assert sharded.data_version == 0


# --------------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------------- #
class TestShardedStorage:
    def test_snapshot_round_trip(self, paper_turtle, paper_queries, tmp_path):
        single = AmberEngine.from_turtle(paper_turtle)
        sharded = ShardedEngine.build(single.data, 3)
        sharded.apply_update(
            "PREFIX x: <http://dbpedia.org/resource/> "
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "INSERT DATA { x:Roma y:isPartOf x:Italy . }"
        )
        single.apply_update(
            "PREFIX x: <http://dbpedia.org/resource/> "
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "INSERT DATA { x:Roma y:isPartOf x:Italy . }"
        )
        directory = tmp_path / "snapshot"
        assert save_engine(sharded, directory) > 0
        loaded = load_engine_auto(directory)
        assert isinstance(loaded, ShardedEngine)
        assert loaded.shard_count == 3
        assert loaded.data_version == sharded.data_version == 1
        assert loaded.owner == sharded.owner
        versions = [shard.data_version for shard in sharded.shards]
        assert [shard.data_version for shard in loaded.shards] == versions
        assert set(versions) == {0, 1}
        assert_equivalent(single, loaded, paper_queries)

    def test_bulk_insert_versions_round_trip(self, tmp_path):
        """One bulk call leaves every changed shard at version 1, and a snapshot keeps it."""
        base = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}p"), IRI(f"{E}v{i + 1}")) for i in range(20)]
        single = AmberEngine.from_triples(base)
        sharded = ShardedEngine.build(single.data, 2)
        bulk = [Triple(IRI(f"{E}v{i}"), IRI(f"{E}name"), Literal(f"n{i}")) for i in range(21)]
        bulk += [Triple(IRI(f"{E}v{i}"), IRI(f"{E}q"), IRI(f"{E}w{i}")) for i in range(21)]
        assert sharded.insert_triples(bulk) == single.insert_triples(bulk) == len(bulk)
        assert [shard.data_version for shard in sharded.shards] == [1, 1]
        directory = tmp_path / "snapshot"
        save_engine(sharded, directory)
        loaded = load_engine_auto(directory)
        assert loaded.data_version == 1
        assert [shard.data_version for shard in loaded.shards] == [1, 1]
        assert_equivalent(
            single,
            loaded,
            [
                f"SELECT ?s ?n WHERE {{ ?s <{E}name> ?n . ?s <{E}q> ?w . }}",
                f"SELECT ?s ?o WHERE {{ ?s <{E}p> ?o . ?o <{E}q> ?w . }}",
            ],
        )


# --------------------------------------------------------------------------- #
# service and CLI integration
# --------------------------------------------------------------------------- #
class TestServiceIntegration:
    def test_stats_reports_per_shard_fields(self, paper_engine):
        sharded = ShardedEngine.build(paper_engine.data, 2)
        service = EngineService(sharded, ServiceConfig())
        stats = service.stats()
        cluster = stats["cluster"]
        assert cluster["shards"] == 2
        assert set(cluster) == {"shards", "per_shard"}
        assert len(cluster["per_shard"]) == 2
        expected_keys = {"shard", "owned_vertices", "vertices", "edges", "triples", "data_version"}
        for entry in cluster["per_shard"]:
            assert expected_keys <= set(entry)
        owned_total = sum(entry["owned_vertices"] for entry in cluster["per_shard"])
        assert owned_total == stats["engine"]["vertices"]

    def test_single_engine_stats_have_no_cluster_section(self, paper_engine):
        service = EngineService(paper_engine, ServiceConfig())
        assert service.stats()["cluster"] is None

    def test_service_query_and_update_through_sharded_engine(self, paper_engine, prefixes):
        sharded = ShardedEngine.build(paper_engine.data, 2)
        service = EngineService(sharded, ServiceConfig())
        update = (
            "PREFIX x: <http://dbpedia.org/resource/> "
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "INSERT DATA { x:Roma y:isPartOf x:Italy . }"
        )
        response = service.update(update)
        assert response.result.inserted == 1
        answer = service.execute(prefixes + "SELECT ?x WHERE { ?x y:isPartOf x:Italy . }")
        assert len(answer.result) == 1

    def test_cli_builds_sharded_service(self, paper_turtle, tmp_path):
        dataset = tmp_path / "paper.ttl"
        dataset.write_text(paper_turtle, encoding="utf-8")
        args = build_arg_parser().parse_args([str(dataset), "--shards", "2"])
        service = build_service(args)
        assert isinstance(service.engine, ShardedEngine)
        assert service.engine.shard_count == 2

    def test_cli_has_no_shard_pool_options(self):
        """Shards match on the request thread; there is no pool to size or pick."""
        for flag in ("--shard-workers=2", "--shard-executor=serial"):
            with pytest.raises(SystemExit):
                build_arg_parser().parse_args(["data.nt", "--shards", "2", flag])

    def test_cli_defaults_stay_single_engine(self, paper_turtle, tmp_path):
        dataset = tmp_path / "paper.ttl"
        dataset.write_text(paper_turtle, encoding="utf-8")
        args = build_arg_parser().parse_args([str(dataset)])
        service = build_service(args)
        assert isinstance(service.engine, AmberEngine)

    def test_cli_resharding_a_snapshot_keeps_its_data_version(self, paper_turtle, tmp_path):
        engine = AmberEngine.from_turtle(paper_turtle)
        engine.apply_update(
            "PREFIX x: <http://dbpedia.org/resource/> "
            "PREFIX y: <http://dbpedia.org/ontology/> "
            "INSERT DATA { x:Roma y:isPartOf x:Italy . }"
        )
        snapshot = tmp_path / "mutated.amber.json"
        save_engine(engine, snapshot)
        args = build_arg_parser().parse_args([str(snapshot), "--shards", "2"])
        service = build_service(args)
        assert isinstance(service.engine, ShardedEngine)
        assert service.engine.data_version == engine.data_version == 1

    def test_cli_loads_sharded_snapshot(self, paper_engine, tmp_path):
        sharded = ShardedEngine.build(paper_engine.data, 2)
        directory = tmp_path / "snap"
        save_engine(sharded, directory)
        args = build_arg_parser().parse_args([str(directory)])
        service = build_service(args)
        assert isinstance(service.engine, ShardedEngine)
        assert service.engine.shard_count == 2
