"""Applying SPARQL UPDATE operations to a live engine (dynamic multigraph).

The paper builds the multigraph and the index ensemble ``I = {A, S, N}``
once, offline.  This module makes the engine *writable*: a
:class:`GraphMutator` applies triple-level inserts and deletes to the
:class:`~repro.multigraph.builder.DataMultigraph` and incrementally
maintains every index so that vertex synopses, the pair-key arrays of
``N`` and attribute postings stay exactly what a from-scratch build on the
mutated triple set would produce (rebuild equivalence — asserted by the
property tests).

The graph changes triple by triple; the indexes are repaired once per
request (:meth:`GraphMutator.batch`).  The repair copies the two arrays of
``N`` for each changed edge type, copies ``A``'s arrays once when an
attribute changed (both are replaced copy-on-write, so the cost is linear
in the arrays' length, not in the request's), and refreshes the synopsis
of each touched vertex once.  The signature index overwrites the synopsis
row of each refreshed vertex in place and appends rows for new vertices
(see :class:`~repro.index.signature_index.SignatureIndex`).

Thread safety: the mutator (like the engine) performs no locking of its
own.  Concurrent readers must be excluded while a mutation is applied —
the query service wraps updates in the write side of a reader-writer lock
(:mod:`repro.server.rwlock`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator
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
    "apply_operations",
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
        #: Inside :meth:`batch`: the ``(vertex, attribute)`` pairs, edges and
        #: new vertices the graph has changed and the indexes not yet.
        self._pending: tuple[list, list, list] | None = None

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Repair the indexes once, when the outermost ``batch`` block ends.

        Every mutation inside the block changes the graph at once and only
        queues its index repair, so a request (or a cluster's per-triple
        routing) pays one copy-on-write patch per changed array, however
        many triples it touches.  The repair runs even when the block
        raises, so the indexes never fall behind the graph.
        """
        if self._pending is not None:
            yield
            return
        self._pending = ([], [], [])
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            self.indexes.apply(self.data.graph, *pending)

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

    def set_attributes(self, vertex: int, attributes: Iterable[int], present: bool) -> int:
        """Add (``present``) or drop ``attributes`` on ``vertex``; returns how many changed.

        Edits the vertex's labels without a triple (a cluster replicating
        a halo vertex's attributes) and counts each change in
        ``triple_count``.
        """
        graph = self.data.graph
        current = graph.attributes(vertex)
        changed = sorted(set(attributes) - current if present else set(attributes) & current)
        with self.batch():
            for attribute in changed:
                (graph.add_attribute if present else graph.remove_attribute)(vertex, attribute)
                self._pending[0].append((vertex, attribute))
        self.data.triple_count += len(changed) if present else -len(changed)
        return len(changed)

    def _apply_batch(self, triples: Iterable[Triple], insert: bool) -> int:
        """Apply one batch of inserts or deletes, queueing the index repair.

        The repair (:meth:`batch`) patches each changed array once and
        recomputes each touched vertex's synopsis once, however many
        triples touch it — a bulk LOAD around a hub vertex stays linear in
        its size.
        """
        count = 0
        change = self.data.insert_triple if insert else self.data.remove_triple
        with self.batch():
            attributes, edges, new_vertices = self._pending
            for triple in triples:
                delta = change(triple)
                if delta is None:
                    continue
                count += 1
                new_vertices.extend(delta.new_vertices)
                if delta.is_edge:
                    edges.append((delta.source, delta.target, delta.edge_type))
                else:
                    attributes.append((delta.source, delta.attribute))
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
        return apply_operations(self, resolve_loads(request, base_dir))


def apply_operations(mutator, operations) -> UpdateResult:
    """Apply resolved ``INSERT DATA`` / ``DELETE DATA`` operations in order.

    ``mutator`` is a :class:`GraphMutator` or a cluster's mutator: the
    whole request runs in one ``mutator.batch()``, so its index repair
    happens once.
    """
    result = UpdateResult()
    with mutator.batch():
        for operation in operations:
            if isinstance(operation, InsertData):
                result.inserted += mutator.insert_triples(operation.triples)
            elif isinstance(operation, DeleteData):
                result.deleted += mutator.delete_triples(operation.triples)
            else:  # pragma: no cover - resolve_loads only leaves the two forms
                raise UpdateError(f"unsupported update operation {operation!r}")
            result.operations += 1
    return result
