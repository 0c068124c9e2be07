"""Routing SPARQL UPDATE mutations to the owning shards of a cluster.

Each triple is applied through the :class:`~repro.amber.mutation.GraphMutator`
of every shard that materialises it:

* an **edge** triple lives in the shards owning its two endpoints (the same
  shard when both are co-located) — each of those shards stores every edge
  incident on its owned vertices;
* an **attribute** triple (literal or reflexive object) lives in the shard
  owning its subject *and* in every shard where the subject is currently a
  halo vertex, because halos replicate full attribute sets.

Each shard's index repair is held until the request (or the
``insert_triples`` / ``delete_triples`` call) ends, through every shard's
:meth:`~repro.amber.mutation.GraphMutator.batch`, so routing triple by
triple still patches each changed index array of a shard once.  Each
changed shard is committed once at that point too: its ``data_version``
goes up by one per request, not per routed triple.

Halo consistency is maintained eagerly: an edge insert that drags a new
halo vertex into a shard copies that vertex's attributes along; an edge
delete that disconnects a halo vertex from all owned vertices of a shard
strips its replicated attributes again, so every shard stays exactly what
a fresh partition of the mutated graph would produce.

Global change accounting is owner-based — a triple counts once, at the
shard owning its subject — so insert/delete counts and the cluster-wide
``triple_count`` match a single unsharded engine.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..amber.mutation import UpdateResult, apply_operations, resolve_loads
from ..multigraph.builder import DataMultigraph
from ..rdf.terms import Triple
from ..sparql.update import UpdateRequest
from .partition import default_owner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import ShardedEngine

__all__ = ["ClusterMutator"]


class ClusterMutator:
    """Applies triple mutations across shards, keeping halos consistent."""

    def __init__(self, engine: "ShardedEngine"):
        self.engine = engine
        #: Inside :meth:`batch`: the indexes of the shards changed so far.
        self._changed: set[int] | None = None

    # ------------------------------------------------------------------ #
    # update requests (mirrors GraphMutator.apply)
    # ------------------------------------------------------------------ #
    def apply(self, request: UpdateRequest, base_dir: str | Path | None = None) -> UpdateResult:
        """Apply every operation of ``request`` in order.

        LOAD sources resolve up front (see
        :func:`repro.amber.mutation.resolve_loads`), so a failing LOAD
        leaves every shard untouched.
        """
        return apply_operations(self, resolve_loads(request, base_dir))

    def insert_triples(self, triples: Iterable[Triple]) -> int:
        """Insert many triples (set semantics); returns how many were new."""
        with self.batch():
            return sum(1 for triple in triples if self._insert(triple))

    def delete_triples(self, triples: Iterable[Triple]) -> int:
        """Delete many triples; returns how many were present."""
        with self.batch():
            return sum(1 for triple in triples if self._delete(triple))

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Hold every shard's index repair and commit until the outermost block ends.

        Each changed shard then repairs its indexes once and commits once
        (one ``data_version`` bump, one plan-cache clear), even when the
        block raises, so no shard is left with a stale version.
        """
        if self._changed is not None:
            yield
            return
        self._changed = set()
        try:
            with ExitStack() as stack:
                for shard in self.engine.shards:
                    stack.enter_context(shard.mutator.batch())
                yield
        finally:
            changed, self._changed = self._changed, None
            for shard in sorted(changed):
                self.engine.shards[shard]._commit(True)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def _dictionaries(self):
        return self.engine.data.dictionaries

    def _attribute_key(self, triple: Triple):
        # The key derivation is stateless; any shard's data works.
        return DataMultigraph._attribute_key(self.engine.shards[0].data, triple)

    def _owner_of(self, entity, create: bool) -> int | None:
        """Return the owning shard of ``entity``, assigning one when new."""
        vertices = self._dictionaries.vertices
        if not create:
            vertex = vertices.get(entity)
            return None if vertex is None else self.engine.owner.get(vertex)
        vertex = vertices.add(entity)
        return self.engine.owner.setdefault(vertex, default_owner(vertex, self.engine.shard_count))

    def _halo_shards(self, vertex: int) -> set[int]:
        """Shards where ``vertex`` is currently replicated as a halo vertex."""
        home = self.engine.owner[vertex]
        neighbors = self.engine.shards[home].data.graph.neighbors(vertex)
        return {self.engine.owner[n] for n in neighbors} - {home}

    def _apply(self, shard: int, triple: Triple, insert: bool) -> bool:
        """Insert or delete ``triple`` in one shard; True when it changed there."""
        mutator = self.engine.shards[shard].mutator
        changed = (mutator.insert_triples if insert else mutator.delete_triples)((triple,)) == 1
        if changed:
            self._changed.add(shard)
        return changed

    def _set_attributes(self, shard: int, vertex: int, attributes, present: bool) -> None:
        """Add or drop attribute ids of a vertex replicated in ``shard``."""
        if self.engine.shards[shard].mutator.set_attributes(vertex, attributes, present):
            self._changed.add(shard)

    def _replicate_attributes(self, vertex: int, shard: int) -> None:
        """Copy ``vertex``'s attribute set from its owner into ``shard``."""
        home = self.engine.owner[vertex]
        if home != shard:
            attributes = self.engine.shards[home].data.graph.attributes(vertex)
            self._set_attributes(shard, vertex, attributes, present=True)

    def _strip_halo(self, vertex: int, shard: int) -> None:
        """Drop the replicated attributes of a halo vertex that lost its last edge."""
        attributes = self.engine.shards[shard].data.graph.attributes(vertex)
        self._set_attributes(shard, vertex, attributes, present=False)

    # ------------------------------------------------------------------ #
    # triple-level primitives
    # ------------------------------------------------------------------ #
    def _route_attribute(self, triple: Triple, key, insert: bool) -> bool:
        """Apply an attribute triple at its subject's owner and every halo copy."""
        home = self._owner_of(triple.subject, create=insert)
        if home is None:
            return False
        if not self._apply(home, triple, insert):
            return False
        vertex = self._dictionaries.vertices.get(triple.subject)
        attribute = self._dictionaries.attributes.get(key)
        for shard in sorted(self._halo_shards(vertex)):
            self._set_attributes(shard, vertex, (attribute,), present=insert)
        self.engine.data.triple_count += 1 if insert else -1
        return True

    def _insert(self, triple: Triple) -> bool:
        engine = self.engine
        key = self._attribute_key(triple)
        if key is not None:
            return self._route_attribute(triple, key, insert=True)

        subject_home = self._owner_of(triple.subject, create=True)
        object_home = self._owner_of(triple.object, create=True)
        subject_id = self._dictionaries.vertices.get(triple.subject)
        object_id = self._dictionaries.vertices.get(triple.object)
        inserted = False
        for shard in sorted({subject_home, object_home}):
            target = engine.shards[shard]
            # A vertex (re-)enters this shard's halo when it had no edges
            # here before this insert.  Edge presence is the test, not graph
            # membership: Multigraph never removes vertices, so a previously
            # stripped halo vertex is still a member — with no edges and no
            # replicated attributes — and must be re-replicated.
            halo_new = [
                vertex
                for vertex in (subject_id, object_id)
                if engine.owner[vertex] != shard and not target.data.graph.neighbors(vertex)
            ]
            changed = self._apply(shard, triple, insert=True)
            if shard == subject_home:
                inserted = changed
            for vertex in halo_new:
                self._replicate_attributes(vertex, shard)
        if inserted:
            engine.data.triple_count += 1
        return inserted

    def _delete(self, triple: Triple) -> bool:
        engine = self.engine
        key = self._attribute_key(triple)
        if key is not None:
            return self._route_attribute(triple, key, insert=False)

        subject_home = self._owner_of(triple.subject, create=False)
        object_home = self._owner_of(triple.object, create=False)
        if subject_home is None or object_home is None:
            return False
        subject_id = self._dictionaries.vertices.get(triple.subject)
        object_id = self._dictionaries.vertices.get(triple.object)
        deleted = False
        for shard in sorted({subject_home, object_home}):
            target = engine.shards[shard]
            changed = self._apply(shard, triple, insert=False)
            if shard == subject_home:
                deleted = changed
            for vertex in (subject_id, object_id):
                if (
                    engine.owner[vertex] != shard
                    and vertex in target.data.graph
                    and not target.data.graph.neighbors(vertex)
                ):
                    self._strip_halo(vertex, shard)
        if deleted:
            engine.data.triple_count -= 1
        return deleted
