"""Transformation of an RDF tripleset into the data multigraph ``G``.

Section 2.1.1 defines four protocols for the transformation:

1. a subject is always a vertex,
2. a predicate is always an edge,
3. an object is a vertex only when it is an IRI (or blank node),
4. when the object is a literal, the tuple ``<predicate, literal>`` becomes
   a vertex *attribute* of the subject.

The result is a :class:`DataMultigraph`: the multigraph plus the three
dictionaries needed to translate ids back to RDF entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..rdf.dataset import TripleStore
from ..rdf.terms import IRI, BlankNode, Literal, Triple
from .dictionaries import GraphDictionaries
from .graph import Multigraph

__all__ = ["DataMultigraph", "TripleDelta", "build_data_multigraph"]


@dataclass(frozen=True, slots=True)
class TripleDelta:
    """What one set-semantics triple insert/delete changed in the multigraph.

    Exactly one of the two shapes is populated: an *edge* delta carries
    ``target``/``edge_type`` (resource triple), an *attribute* delta carries
    ``attribute`` (literal or reflexive triple).  ``new_vertices`` lists the
    vertex ids an insert created, so index maintenance can register them.
    """

    source: int
    target: int | None = None
    edge_type: int | None = None
    attribute: int | None = None
    new_vertices: tuple[int, ...] = ()

    @property
    def is_edge(self) -> bool:
        """True for a resource-triple (edge) delta."""
        return self.edge_type is not None


@dataclass
class DataMultigraph:
    """The data multigraph ``G`` together with its dictionaries."""

    graph: Multigraph = field(default_factory=Multigraph)
    dictionaries: GraphDictionaries = field(default_factory=GraphDictionaries)
    triple_count: int = 0

    # ------------------------------------------------------------------ #
    # incremental construction
    # ------------------------------------------------------------------ #
    def add_triple(self, triple: Triple) -> None:
        """Apply the four transformation protocols to one RDF triple."""
        subject_id = self.dictionaries.vertices.add(triple.subject)
        self.graph.add_vertex(subject_id)
        obj = triple.object
        if isinstance(obj, Literal):
            attribute_id = self.dictionaries.attributes.add((triple.predicate, obj))
            self.graph.add_attribute(subject_id, attribute_id)
        else:
            edge_type_id = self.dictionaries.edge_types.add(triple.predicate)
            object_id = self.dictionaries.vertices.add(obj)
            if object_id == subject_id:
                # RDF allows reflexive statements (s p s); Definition 1 forbids
                # self-loops, so we follow the paper and record the relation as
                # a vertex attribute instead of dropping the information.
                reflexive = (triple.predicate, Literal(str(obj)))
                attribute_id = self.dictionaries.attributes.add(reflexive)
                self.graph.add_attribute(subject_id, attribute_id)
            else:
                self.graph.add_edge(subject_id, object_id, edge_type_id)
        self.triple_count += 1

    def add_triples(self, triples: Iterable[Triple]) -> None:
        """Add every triple of ``triples``."""
        for triple in triples:
            self.add_triple(triple)

    # ------------------------------------------------------------------ #
    # set-semantics mutation (dynamic updates)
    # ------------------------------------------------------------------ #
    def _attribute_key(self, triple: Triple) -> tuple[IRI, Literal] | None:
        """Return the ``Ma`` key when ``triple`` is stored as a vertex attribute.

        Literal objects follow transformation protocol 4; reflexive resource
        statements follow the same translation ``add_triple`` applies (the
        object rendered as a literal), so inserts and deletes agree.
        """
        obj = triple.object
        if isinstance(obj, Literal):
            return (triple.predicate, obj)
        if obj == triple.subject:
            return (triple.predicate, Literal(str(obj)))
        return None

    def has_triple(self, triple: Triple) -> bool:
        """Return True when ``triple`` is currently represented in the multigraph."""
        subject_id = self.dictionaries.vertices.get(triple.subject)
        if subject_id is None:
            return False
        key = self._attribute_key(triple)
        if key is not None:
            attribute_id = self.dictionaries.attributes.get(key)
            return attribute_id is not None and attribute_id in self.graph.attributes(subject_id)
        edge_type_id = self.dictionaries.edge_types.get(triple.predicate)
        object_id = self.dictionaries.vertices.get(triple.object)
        if edge_type_id is None or object_id is None:
            return False
        return self.graph.has_edge(subject_id, object_id, edge_type_id)

    def insert_triple(self, triple: Triple) -> TripleDelta | None:
        """Insert ``triple`` with RDF set semantics; None when already present.

        Unlike :meth:`add_triple` (which counts every statement it is fed,
        duplicates included, mirroring the offline bulk load), this method
        only changes the multigraph — and ``triple_count`` — when the triple
        is genuinely new, which is what incremental index maintenance and
        rebuild equivalence require.
        """
        if self.has_triple(triple):
            return None
        new_vertices: list[int] = []
        subject_id = self.dictionaries.vertices.add(triple.subject)
        if subject_id not in self.graph:
            new_vertices.append(subject_id)
            self.graph.add_vertex(subject_id)
        key = self._attribute_key(triple)
        if key is not None:
            attribute_id = self.dictionaries.attributes.add(key)
            self.graph.add_attribute(subject_id, attribute_id)
            self.triple_count += 1
            return TripleDelta(
                source=subject_id, attribute=attribute_id, new_vertices=tuple(new_vertices)
            )
        edge_type_id = self.dictionaries.edge_types.add(triple.predicate)
        object_id = self.dictionaries.vertices.add(triple.object)
        if object_id not in self.graph:
            new_vertices.append(object_id)
            self.graph.add_vertex(object_id)
        self.graph.add_edge(subject_id, object_id, edge_type_id)
        self.triple_count += 1
        return TripleDelta(
            source=subject_id,
            target=object_id,
            edge_type=edge_type_id,
            new_vertices=tuple(new_vertices),
        )

    def remove_triple(self, triple: Triple) -> TripleDelta | None:
        """Remove ``triple``; None when it is not present.

        Lookups never create dictionary entries, and existing entries are
        kept even when their last use disappears: ids are dense and stable,
        and a query naming an orphaned entity simply finds no matches —
        exactly as if the entity were unknown.
        """
        subject_id = self.dictionaries.vertices.get(triple.subject)
        if subject_id is None:
            return None
        key = self._attribute_key(triple)
        if key is not None:
            attribute_id = self.dictionaries.attributes.get(key)
            if attribute_id is None or not self.graph.remove_attribute(subject_id, attribute_id):
                return None
            self.triple_count -= 1
            return TripleDelta(source=subject_id, attribute=attribute_id)
        edge_type_id = self.dictionaries.edge_types.get(triple.predicate)
        object_id = self.dictionaries.vertices.get(triple.object)
        if edge_type_id is None or object_id is None:
            return None
        if not self.graph.remove_edge(subject_id, object_id, edge_type_id):
            return None
        self.triple_count -= 1
        return TripleDelta(source=subject_id, target=object_id, edge_type=edge_type_id)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def vertex_id(self, entity: IRI | BlankNode) -> int | None:
        """Return the vertex id of an IRI/blank node, or None when absent."""
        return self.dictionaries.vertices.get(entity)

    def entity(self, vertex_id: int) -> IRI | BlankNode:
        """Inverse vertex mapping ``Mv^-1``."""
        return self.dictionaries.vertex_entity(vertex_id)

    def edge_type_id(self, predicate: IRI) -> int | None:
        """Return the edge-type id of a predicate, or None when absent."""
        return self.dictionaries.edge_types.get(predicate)

    def attribute_id(self, predicate: IRI, literal: Literal) -> int | None:
        """Return the attribute id of a ``<predicate, literal>`` pair, or None."""
        return self.dictionaries.attributes.get((predicate, literal))

    def statistics(self) -> dict[str, int]:
        """Return offline-stage statistics (Tables 4 and 5)."""
        stats = self.graph.statistics()
        stats["triples"] = self.triple_count
        stats["attributes"] = len(self.dictionaries.attributes)
        return stats


def build_data_multigraph(source: TripleStore | Iterable[Triple]) -> DataMultigraph:
    """Build the data multigraph from a triple store or any triple iterable."""
    data = DataMultigraph()
    triples: Iterable[Triple] = source if not isinstance(source, TripleStore) else iter(source)
    data.add_triples(triples)
    return data
