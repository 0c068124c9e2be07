"""Applying SPARQL UPDATE operations to a live engine (dynamic multigraph).

The paper builds the multigraph and the index ensemble ``I = {A, S, N}``
once, offline.  This module makes the engine *writable*: a
:class:`GraphMutator` applies triple-level inserts and deletes to the
:class:`~repro.multigraph.builder.DataMultigraph` and incrementally
maintains every index so that vertex signatures, synopses, OTIL tries and
attribute postings stay exactly what a from-scratch build on the mutated
triple set would produce (rebuild equivalence — asserted by the property
tests).

Maintenance cost per triple is local: an edge change refreshes the OTIL
pair and synopsis of its two endpoints only; an attribute change touches
one inverted list.  The signature index overwrites the synopsis row of each
refreshed vertex in place and appends rows for new vertices
(see :class:`~repro.index.signature_index.SignatureIndex`).

Thread safety: the mutator (like the engine) performs no locking of its
own.  Concurrent readers must be excluded while a mutation is applied —
the query service wraps updates in the write side of a reader-writer lock
(:mod:`repro.server.rwlock`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from urllib.parse import unquote, urlsplit

from ..errors import ReproError
from ..index.manager import IndexSet
from ..multigraph.builder import DataMultigraph
from ..rdf.ntriples import parse_ntriples_file
from ..rdf.terms import Triple
from ..rdf.turtle import parse_turtle
from ..sparql.update import DeleteData, InsertData, LoadData, UpdateRequest

__all__ = [
    "UpdateError",
    "UpdateResult",
    "GraphMutator",
    "resolve_load_path",
    "resolve_loads",
    "load_triples",
]


class UpdateError(ReproError):
    """Raised when an update operation cannot be executed (e.g. LOAD failure)."""


@dataclass
class UpdateResult:
    """Outcome of one applied update request."""

    inserted: int = 0
    deleted: int = 0
    operations: int = 0

    @property
    def changed(self) -> bool:
        """True when the multigraph actually changed (caches must invalidate)."""
        return self.inserted > 0 or self.deleted > 0

    def as_dict(self) -> dict[str, int]:
        return {
            "inserted": self.inserted,
            "deleted": self.deleted,
            "operations": self.operations,
        }


def resolve_load_path(source: str, base_dir: str | Path | None = None) -> Path:
    """Turn a ``LOAD`` source IRI into a local filesystem path.

    Accepts ``file:`` IRIs (``file:///abs/path`` or ``file:rel/path``) and
    plain paths; relative paths resolve against ``base_dir`` (default: the
    process working directory).
    """
    if source.startswith("file:"):
        parts = urlsplit(source)
        raw = unquote(parts.path) or unquote(parts.netloc)
    else:
        raw = source
    path = Path(raw)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return path


def _triples_from_file(path: Path) -> Iterable[Triple]:
    suffix = path.suffix.lower()
    if suffix in (".nt", ".ntriples"):
        return parse_ntriples_file(path)
    if suffix in (".ttl", ".turtle"):
        return parse_turtle(path.read_text(encoding="utf-8"))
    raise UpdateError(
        f"cannot infer RDF format from suffix {suffix!r} of LOAD source {path} "
        f"(expected .nt/.ntriples or .ttl/.turtle)"
    )


def resolve_loads(
    request: UpdateRequest, base_dir: str | Path | None = None
) -> tuple[InsertData | DeleteData, ...]:
    """Resolve every ``LOAD`` of ``request`` into a ground ``InsertData`` batch.

    Reading and parsing the sources up front makes request application
    all-or-nothing with respect to LOAD failures; the query service calls
    this before taking its exclusive write lock so file I/O never blocks
    readers.
    """
    return tuple(
        InsertData(load_triples(operation, base_dir))
        if isinstance(operation, LoadData)
        else operation
        for operation in request.operations
    )


def load_triples(operation: LoadData, base_dir: str | Path | None = None) -> tuple[Triple, ...]:
    """Read and parse a ``LOAD`` operation's source file.

    Honours ``SILENT`` (read/parse failures yield an empty batch); non-silent
    failures raise :class:`UpdateError`.  Exposed separately so the query
    service can prefetch LOAD sources *before* taking its exclusive write
    lock — file I/O and RDF parsing never need to block readers.
    """
    path = resolve_load_path(operation.source, base_dir)
    try:
        return tuple(_triples_from_file(path))
    except UpdateError:
        if operation.silent:
            return ()
        raise
    except (OSError, ValueError) as exc:  # NTriplesParseError is a ValueError
        if operation.silent:
            return ()
        raise UpdateError(f"LOAD <{operation.source}> failed: {exc}") from exc


class GraphMutator:
    """Applies triple mutations to a multigraph, keeping all indexes exact."""

    def __init__(self, data: DataMultigraph, indexes: IndexSet):
        self.data = data
        self.indexes = indexes

    # ------------------------------------------------------------------ #
    # triple-level primitives
    # ------------------------------------------------------------------ #
    def insert_triple(self, triple: Triple) -> bool:
        """Insert one triple (set semantics); True when the graph changed."""
        return self.insert_triples((triple,)) == 1

    def delete_triple(self, triple: Triple) -> bool:
        """Delete one triple; True when it was present."""
        return self.delete_triples((triple,)) == 1

    def insert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new."""
        return self._apply_batch(triples, insert=True)

    def delete_triples(self, triples: Iterable[Triple]) -> int:
        """Delete many triples; returns how many were present."""
        return self._apply_batch(triples, insert=False)

    def _apply_batch(self, triples: Iterable[Triple], insert: bool) -> int:
        """Apply one batch of inserts or deletes, then repair the indexes.

        Attribute postings are edited per delta (exact and O(1)), but the
        edge-dependent structures (OTIL pair, synopsis) are refreshed once
        per *touched vertex* at the end of the batch rather than once per
        triple: a bulk LOAD of N triples incident on one hub vertex would
        otherwise rebuild that vertex's full adjacency N times — quadratic
        work, all of it under the service's exclusive write lock.  Deferring
        is safe because a refresh derives purely from the final graph state.
        """
        graph = self.data.graph
        touched: set[int] = set()
        count = 0
        for triple in triples:
            delta = self.data.insert_triple(triple) if insert else self.data.remove_triple(triple)
            if delta is None:
                continue
            count += 1
            touched.update(delta.new_vertices)
            if delta.attribute is not None:
                if insert:
                    self.indexes.attributes.add(delta.source, delta.attribute)
                else:
                    self.indexes.attributes.remove(delta.source, delta.attribute)
            else:
                touched.update(delta.touched_vertices())
        for vertex in touched:
            self.indexes.refresh_vertex(graph, vertex)
        return count

    # ------------------------------------------------------------------ #
    # update requests
    # ------------------------------------------------------------------ #
    def apply(self, request: UpdateRequest, base_dir: str | Path | None = None) -> UpdateResult:
        """Apply every operation of ``request`` in order.

        ``LOAD`` sources are read and parsed *before* any operation
        mutates the graph: a request whose LOAD fails (missing file,
        unparseable payload) raises :class:`UpdateError` with the graph
        untouched, instead of leaving the operations preceding the failure
        half-applied.
        """
        operations = resolve_loads(request, base_dir)
        result = UpdateResult()
        for operation in operations:
            if isinstance(operation, InsertData):
                result.inserted += self.insert_triples(operation.triples)
            elif isinstance(operation, DeleteData):
                result.deleted += self.delete_triples(operation.triples)
            else:  # pragma: no cover - resolve_loads only leaves the two forms
                raise UpdateError(f"unsupported update operation {operation!r}")
            result.operations += 1
        return result
