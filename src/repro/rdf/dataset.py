"""In-memory triple store with permutation indexes.

The store keeps three hash-based permutation indexes (SPO, POS, OSP) so
that any triple pattern with bound components can be answered by a direct
lookup.  It is the shared substrate for the relational-style baseline
engines (the x-RDF-3X / Virtuoso stand-ins) and the input to the
multigraph builder.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from .namespace import NamespaceManager
from .ntriples import parse_ntriples, parse_ntriples_file
from .terms import IRI, BlankNode, Literal, Term, Triple
from .turtle import parse_turtle

__all__ = ["TripleStore"]


class TripleStore:
    """A set-semantics in-memory RDF triple store.

    Duplicate triples are ignored.  Pattern matching treats ``None`` as a
    wildcard, mirroring the classic ``triples((s, p, o))`` API.  Iteration
    follows insertion order, so ids assigned from a walk over the store
    (``AmberEngine.from_store``) do not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self, triples: Iterable[Triple] | None = None):
        self._triples: dict[Triple, None] = {}
        self._spo: dict[Term, dict[IRI, set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[IRI, dict[Term, set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[Term, dict[Term, set[IRI]]] = defaultdict(lambda: defaultdict(set))
        self.namespaces = NamespaceManager()
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add one triple; return True if it was not already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number of new statements."""
        return sum(1 for triple in triples if self.add(triple))

    def remove(self, triple: Triple) -> bool:
        """Remove one triple; return True if it was present."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo[s][p].discard(o)
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        return True

    # ------------------------------------------------------------------ #
    # loading helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ntriples(cls, text: str) -> "TripleStore":
        """Build a store from an N-Triples document string."""
        return cls(parse_ntriples(text))

    @classmethod
    def from_ntriples_file(cls, path) -> "TripleStore":
        """Build a store from an ``.nt`` file."""
        return cls(parse_ntriples_file(path))

    @classmethod
    def from_turtle(cls, text: str) -> "TripleStore":
        """Build a store from a Turtle document string."""
        store = cls()
        store.add_all(parse_turtle(text, store.namespaces))
        return store

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def triples(
        self,
        subject: Term | None = None,
        predicate: IRI | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield all triples matching a pattern; ``None`` is a wildcard.

        A literal ``subject`` matches nothing (literals cannot be subjects in
        RDF), which lets join engines substitute bound values blindly.
        """
        if isinstance(subject, Literal):
            return
        if subject is not None and predicate is not None and obj is not None:
            candidate = Triple(subject, predicate, obj)
            if candidate in self._triples:
                yield candidate
            return
        if subject is not None and predicate is not None:
            for o in self._spo.get(subject, {}).get(predicate, ()):
                yield Triple(subject, predicate, o)
            return
        if predicate is not None and obj is not None:
            for s in self._pos.get(predicate, {}).get(obj, ()):
                yield Triple(s, predicate, obj)
            return
        if subject is not None and obj is not None:
            for p in self._osp.get(obj, {}).get(subject, ()):
                yield Triple(subject, p, obj)
            return
        if subject is not None:
            for p, objects in self._spo.get(subject, {}).items():
                for o in objects:
                    yield Triple(subject, p, o)
            return
        if predicate is not None:
            for o, subjects in self._pos.get(predicate, {}).items():
                for s in subjects:
                    yield Triple(s, predicate, o)
            return
        if obj is not None:
            for s, predicates in self._osp.get(obj, {}).items():
                for p in predicates:
                    yield Triple(s, p, obj)
            return
        yield from self._triples

    def count(
        self,
        subject: Term | None = None,
        predicate: IRI | None = None,
        obj: Term | None = None,
    ) -> int:
        """Return the number of triples matching a pattern (used for selectivity)."""
        if isinstance(subject, Literal):
            return 0
        if subject is None and predicate is None and obj is None:
            return len(self._triples)
        if subject is not None and predicate is not None and obj is None:
            return len(self._spo.get(subject, {}).get(predicate, ()))
        if predicate is not None and obj is not None and subject is None:
            return len(self._pos.get(predicate, {}).get(obj, ()))
        if predicate is not None and subject is None and obj is None:
            return sum(len(subjects) for subjects in self._pos.get(predicate, {}).values())
        return sum(1 for _ in self.triples(subject, predicate, obj))

    # ------------------------------------------------------------------ #
    # statistics (Table 4 of the paper)
    # ------------------------------------------------------------------ #
    def subjects(self) -> set[Term]:
        """Return the set of distinct subjects."""
        return {t.subject for t in self._triples}

    def predicates(self) -> set[IRI]:
        """Return the set of distinct predicates."""
        return set(self._pos.keys()) & {t.predicate for t in self._triples}

    def objects(self) -> set[Term]:
        """Return the set of distinct objects."""
        return {t.object for t in self._triples}

    def iri_nodes(self) -> set[Term]:
        """Return the distinct IRI/blank-node resources appearing as subject or object."""
        nodes: set[Term] = set()
        for triple in self._triples:
            nodes.add(triple.subject)
            if isinstance(triple.object, (IRI, BlankNode)):
                nodes.add(triple.object)
        return nodes

    def literal_triples(self) -> Iterator[Triple]:
        """Yield triples whose object is a literal."""
        return (t for t in self._triples if isinstance(t.object, Literal))

    def statistics(self) -> dict[str, int]:
        """Return Table-4 style statistics for this dataset."""
        iri_nodes = self.iri_nodes()
        resource_edges = sum(1 for t in self._triples if isinstance(t.object, (IRI, BlankNode)))
        return {
            "triples": len(self._triples),
            "vertices": len(iri_nodes),
            "edges": resource_edges,
            "edge_types": len(
                {t.predicate for t in self._triples if isinstance(t.object, (IRI, BlankNode))}
            ),
        }
