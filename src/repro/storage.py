"""Persistence for the offline stage: save and reload a built engine.

The paper's offline stage (Section 3, Table 5) builds the multigraph
database once and stores it on disk so that queries can be answered without
re-parsing the RDF dump.  This module provides the same capability: the
data multigraph and its three dictionaries are written to a single JSON
document, and :func:`load_engine` rebuilds the index ensemble ``I`` from it
(index construction is fast relative to RDF parsing, see Table 5, and the
indexes are fully derived data).

The format is deliberately explicit and versioned rather than pickled, so
files remain portable across Python versions and library releases.

Example::

    engine = AmberEngine.from_ntriples_file("data.nt")
    save_engine(engine, "data.amber.json")
    ...
    engine = load_engine("data.amber.json")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .amber.engine import AmberEngine, BuildReport
from .amber.matching import MatcherConfig
from .index.manager import IndexSet
from .multigraph.builder import DataMultigraph, build_data_multigraph
from .multigraph.dictionaries import GraphDictionaries
from .rdf.ntriples import parse_ntriples
from .rdf.terms import IRI, BlankNode, Literal
from .rdf.turtle import parse_turtle

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime import cycle
    from .cluster.engine import ShardedEngine

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "StorageError",
    "save_data_multigraph",
    "load_data_multigraph",
    "load_data_auto",
    "save_engine",
    "load_engine",
    "save_sharded_engine",
    "load_sharded_engine",
    "load_engine_auto",
]

#: Version stamp written into every file; bumped on incompatible changes.
FORMAT_VERSION = 1

#: File name of the sharded-snapshot manifest inside its directory.
MANIFEST_NAME = "manifest.json"

#: File name of the shared-dictionaries sidecar inside a sharded snapshot.
DICTIONARIES_NAME = "dictionaries.json"


class StorageError(ValueError):
    """Raised when a persisted multigraph file cannot be interpreted."""


# --------------------------------------------------------------------------- #
# term (de)serialization
# --------------------------------------------------------------------------- #
def _term_to_json(term) -> dict:
    if isinstance(term, IRI):
        return {"t": "iri", "v": term.value}
    if isinstance(term, BlankNode):
        return {"t": "bnode", "v": term.label}
    if isinstance(term, Literal):
        out = {"t": "lit", "v": term.value}
        if term.datatype:
            out["d"] = term.datatype
        if term.language:
            out["l"] = term.language
        return out
    raise StorageError(f"cannot serialize term of type {type(term).__name__}")


def _term_from_json(data: dict):
    kind = data.get("t")
    if kind == "iri":
        return IRI(data["v"])
    if kind == "bnode":
        return BlankNode(data["v"])
    if kind == "lit":
        return Literal(data["v"], datatype=data.get("d"), language=data.get("l"))
    raise StorageError(f"unknown term tag {kind!r}")


# --------------------------------------------------------------------------- #
# data multigraph
# --------------------------------------------------------------------------- #
def save_data_multigraph(
    data: DataMultigraph,
    path: str | Path,
    data_version: int = 0,
    include_dictionaries: bool = True,
) -> int:
    """Write the multigraph database to ``path``; return the file size in bytes.

    ``data_version`` records how many mutation batches the engine had
    applied when the snapshot was taken (0 for a pristine offline build);
    it round-trips through :func:`load_engine` so operators can correlate
    snapshots with the server's ``/stats`` output.
    """
    graph = data.graph
    document = {
        "format_version": FORMAT_VERSION,
        "data_version": data_version,
        "triple_count": data.triple_count,
        # The graph's vertex set: equal to the dictionary for a whole-graph
        # snapshot, a subset for a cluster shard (whose dictionaries are
        # global but whose graph only holds owned + halo vertices).
        "graph_vertices": sorted(graph.vertices()),
        "edges": [
            [source, target, sorted(types)] for source, target, types in graph.edges()
        ],
        "vertex_attributes": {
            str(vertex): sorted(graph.attributes(vertex))
            for vertex in graph.vertices()
            if graph.attributes(vertex)
        },
    }
    if include_dictionaries:
        document.update(_dictionaries_to_json(data.dictionaries))
    else:
        # Cluster shards share one global dictionary set, persisted once as
        # a sidecar by save_sharded_engine instead of N times here.
        document["dictionaries_external"] = True
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path.stat().st_size


def _dictionaries_to_json(dictionaries: GraphDictionaries) -> dict:
    return {
        "vertices": [_term_to_json(entity) for entity in dictionaries.vertices],
        "edge_types": [predicate.value for predicate in dictionaries.edge_types],
        "attributes": [
            [predicate.value, _term_to_json(literal)]
            for predicate, literal in dictionaries.attributes
        ],
    }


def _dictionaries_from_json(document: dict) -> GraphDictionaries:
    dictionaries = GraphDictionaries()
    for entity in document["vertices"]:
        dictionaries.vertices.add(_term_from_json(entity))
    for predicate in document["edge_types"]:
        dictionaries.edge_types.add(IRI(predicate))
    for predicate, literal in document["attributes"]:
        literal_term = _term_from_json(literal)
        if not isinstance(literal_term, Literal):
            raise StorageError("attribute values must be literals")
        dictionaries.attributes.add((IRI(predicate), literal_term))
    return dictionaries


def _read_document(path: str | Path) -> dict:
    """Read and version-check a persisted multigraph document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StorageError(f"not a multigraph database file: {path}") from exc
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported format version {version!r} (expected {FORMAT_VERSION})")
    return document


def load_data_multigraph(path: str | Path) -> DataMultigraph:
    """Read a multigraph database previously written by :func:`save_data_multigraph`."""
    return _data_from_document(_read_document(path))


def load_data_auto(path: str | Path) -> tuple[DataMultigraph, int]:
    """Load just the data multigraph of a dataset file — no index build.

    Accepts the same single-file formats as :func:`load_engine_auto`
    (``.json``, ``.nt``/``.ntriples``, ``.ttl``/``.turtle``).  Used when
    the indexes about to be built are not the whole-graph ensemble — the
    cluster partitioner indexes per shard, so building the single-engine
    ensemble first would be thrown-away work.

    Returns ``(data, data_version)``; the version is 0 for raw RDF text
    and the persisted :attr:`~AmberEngine.data_version` for an engine
    snapshot, so re-sharding a mutated snapshot continues its version
    sequence instead of silently resetting it.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        document = _read_document(path)
        return _data_from_document(document), int(document.get("data_version", 0))
    if suffix in (".nt", ".ntriples"):
        with open(path, "r", encoding="utf-8") as handle:
            return build_data_multigraph(parse_ntriples(handle)), 0
    if suffix in (".ttl", ".turtle"):
        return build_data_multigraph(parse_turtle(path.read_text(encoding="utf-8"))), 0
    raise StorageError(
        f"cannot infer dataset format from suffix {suffix!r} of {path} "
        f"(expected .amber.json, .nt/.ntriples or .ttl/.turtle)"
    )


def _data_from_document(
    document: dict, dictionaries: GraphDictionaries | None = None
) -> DataMultigraph:
    data = DataMultigraph()
    data.triple_count = int(document.get("triple_count", 0))
    if dictionaries is not None:
        data.dictionaries = dictionaries
    elif document.get("dictionaries_external"):
        raise StorageError(
            "this file stores no dictionaries (a cluster shard); load it "
            "through load_sharded_engine, which supplies the shared sidecar"
        )
    else:
        data.dictionaries = _dictionaries_from_json(document)
    graph_vertices = document.get("graph_vertices")
    # Files written before "graph_vertices" existed hold whole graphs, where
    # every dictionary entry is a graph vertex.
    if graph_vertices is None:
        graph_vertices = range(len(data.dictionaries.vertices))
    for vertex in graph_vertices:
        data.graph.add_vertex(int(vertex))
    for source, target, types in document["edges"]:
        for edge_type in types:
            data.graph.add_edge(int(source), int(target), int(edge_type))
    for vertex, attributes in document.get("vertex_attributes", {}).items():
        for attribute in attributes:
            data.graph.add_attribute(int(vertex), int(attribute))
    return data


# --------------------------------------------------------------------------- #
# engine-level helpers
# --------------------------------------------------------------------------- #
def save_engine(engine, path: str | Path) -> int:
    """Persist a snapshot of the engine's multigraph database.

    Works for pristine *and* mutated engines: the document always reflects
    the current graph and dictionaries, and carries the engine's
    :attr:`~AmberEngine.data_version` so a reloaded engine continues the
    version sequence where the snapshot left off.  Returns the file size
    in bytes.

    A :class:`~repro.cluster.ShardedEngine` is dispatched to
    :func:`save_sharded_engine`; ``path`` then names the snapshot
    *directory*.
    """
    from .cluster.engine import ShardedEngine

    if isinstance(engine, ShardedEngine):
        return save_sharded_engine(engine, path)
    return save_data_multigraph(engine.data, path, data_version=engine.data_version)


def load_engine(path: str | Path, config: MatcherConfig | None = None) -> AmberEngine:
    """Load a persisted database and rebuild the index ensemble ``I = {A, S, N}``."""
    import time

    start = time.perf_counter()
    document = _read_document(path)
    data = _data_from_document(document)
    database_seconds = time.perf_counter() - start

    start = time.perf_counter()
    indexes = IndexSet.build(data)
    index_seconds = time.perf_counter() - start

    stats = data.statistics()
    report = BuildReport(
        database_seconds=database_seconds,
        index_seconds=index_seconds,
        triples=stats["triples"],
        vertices=stats["vertices"],
        edges=stats["edges"],
        edge_types=stats["edge_types"],
        attributes=stats["attributes"],
        index_items=indexes.report.total_items if indexes.report else 0,
    )
    engine = AmberEngine(data, indexes, report, config)
    engine.data_version = int(document.get("data_version", 0))
    return engine


# --------------------------------------------------------------------------- #
# sharded snapshots (repro.cluster)
# --------------------------------------------------------------------------- #
def save_sharded_engine(engine, directory: str | Path) -> int:
    """Persist a :class:`~repro.cluster.ShardedEngine` as a snapshot directory.

    The directory holds one ``shard-NNN.amber.json`` engine file per shard
    (each carrying its shard's :attr:`~AmberEngine.data_version`), the
    shared global dictionaries once in ``dictionaries.json`` (they are
    identical across shards — persisting them per shard would multiply
    the snapshot size by the shard count), plus a ``manifest.json``
    recording the shard count, the cluster-wide data version and triple
    count, and the vertex-ownership assignment — the one piece of
    partitioning state that is not re-derivable after mutations.
    Returns the total size written in bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dictionaries_path = directory / DICTIONARIES_NAME
    with open(dictionaries_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"format_version": FORMAT_VERSION, **_dictionaries_to_json(engine.data.dictionaries)},
            handle,
        )
    total = dictionaries_path.stat().st_size
    shard_files = [f"shard-{index:03d}.amber.json" for index in range(engine.shard_count)]
    for shard, name in zip(engine.shards, shard_files):
        total += save_data_multigraph(
            shard.data,
            directory / name,
            data_version=shard.data_version,
            include_dictionaries=False,
        )
    owner = engine.owner
    owners = [owner[vertex] for vertex in sorted(owner)]
    if sorted(owner) != list(range(len(owner))):  # pragma: no cover - defensive
        raise StorageError("vertex ownership is not dense; cannot persist the manifest")
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded-engine",
        "shards": engine.shard_count,
        "data_version": engine.data_version,
        "triple_count": engine.data.triple_count,
        "dictionaries_file": DICTIONARIES_NAME,
        "shard_files": shard_files,
        "shard_data_versions": [shard.data_version for shard in engine.shards],
        "owners": owners,
    }
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return total + manifest_path.stat().st_size


def load_sharded_engine(path: str | Path, config: MatcherConfig | None = None):
    """Load a sharded snapshot directory (or its manifest file) written by
    :func:`save_sharded_engine` and rebuild every shard's index ensemble."""
    from .cluster.engine import ShardedEngine

    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        raise StorageError(f"not a sharded snapshot manifest: {manifest_path}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported format version {manifest.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if manifest.get("kind") != "sharded-engine":
        raise StorageError(f"not a sharded snapshot manifest: {manifest_path}")

    directory = manifest_path.parent
    dictionaries_name = manifest.get("dictionaries_file", DICTIONARIES_NAME)
    with open(directory / dictionaries_name, "r", encoding="utf-8") as handle:
        dictionaries_document = json.load(handle)
    if dictionaries_document.get("format_version") != FORMAT_VERSION:
        raise StorageError(f"unsupported dictionaries file {dictionaries_name}")
    # One dictionaries object, shared by every shard — the cluster's global
    # id space.
    dictionaries = _dictionaries_from_json(dictionaries_document)
    shard_versions = manifest.get("shard_data_versions", [])
    engines = []
    for index, name in enumerate(manifest["shard_files"]):
        document = _read_document(directory / name)
        data = _data_from_document(document, dictionaries=dictionaries)
        engine = AmberEngine(data, IndexSet.build(data), config=config)
        if index < len(shard_versions):
            engine.data_version = int(shard_versions[index])
        else:
            engine.data_version = int(document.get("data_version", 0))
        engines.append(engine)
    if len(engines) != int(manifest["shards"]):
        raise StorageError("manifest shard count disagrees with the shard file list")

    owner = {vertex: int(shard) for vertex, shard in enumerate(manifest["owners"])}
    sharded = ShardedEngine(engines, owner, int(manifest.get("triple_count", 0)), config=config)
    sharded.data_version = int(manifest.get("data_version", 0))
    return sharded


def load_engine_auto(
    path: str | Path, config: MatcherConfig | None = None
) -> "AmberEngine | ShardedEngine":
    """Build or load an engine from ``path``, dispatching on the file suffix.

    Returns an :class:`AmberEngine` for single-file inputs and a
    :class:`~repro.cluster.ShardedEngine` for sharded snapshot
    directories; both expose the same query/count/prepare/update API
    (:class:`~repro.amber.engine.QueryEngineBase`).

    Recognised inputs (the formats accepted by ``python -m repro.server``):

    * a directory containing ``manifest.json`` (or the manifest itself) —
      a sharded snapshot written by :func:`save_sharded_engine`, loaded as
      a :class:`~repro.cluster.ShardedEngine`;
    * ``*.json`` (including ``*.amber.json``) — a persisted multigraph
      database written by :func:`save_engine`, loaded via :func:`load_engine`;
    * ``*.nt`` / ``*.ntriples`` — an N-Triples dump;
    * ``*.ttl`` / ``*.turtle`` — a Turtle document.
    """
    path = Path(path)
    if path.is_dir() or path.name == MANIFEST_NAME:
        return load_sharded_engine(path, config)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return load_engine(path, config)
    if suffix in (".nt", ".ntriples"):
        return AmberEngine.from_ntriples_file(path, config=config)
    if suffix in (".ttl", ".turtle"):
        return AmberEngine.from_turtle(path.read_text(encoding="utf-8"), config=config)
    raise StorageError(
        f"cannot infer dataset format from suffix {suffix!r} of {path} "
        f"(expected .amber.json, .nt/.ntriples or .ttl/.turtle)"
    )
