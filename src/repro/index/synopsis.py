"""Vertex signatures and their synopses (Section 4.2, Table 3).

A *vertex signature* is the multiset of directed multi-edges incident on a
vertex, split into the incoming (``+``) and outgoing (``-``) parts.  A
*synopsis* summarises one signature with four features per direction:

* ``f1`` — maximum cardinality of a multi-edge,
* ``f2`` — number of distinct edge types,
* ``f3`` — minimum edge-type index, stored negated so that the candidate
  test is a single dominance comparison (paper, proof of Lemma 1),
* ``f4`` — maximum edge-type index.

A data vertex ``v`` can match a query vertex ``u`` only if every synopsis
field of ``u`` is ``<=`` the corresponding field of ``v`` (Lemma 1).  For a
query vertex with no edges on one side, that side imposes no constraint;
:func:`query_synopsis` therefore fills it with ``-inf`` bounds instead of
zeros, which preserves Lemma 1's completeness guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..multigraph.graph import Multigraph

__all__ = [
    "SYNOPSIS_FIELDS",
    "VertexSignature",
    "signature_of",
    "side_features",
    "data_synopsis",
    "vertex_synopsis",
    "query_synopsis",
    "dominates",
]

#: Number of numeric fields in a synopsis vector (f1..f4 for '+' then '-').
SYNOPSIS_FIELDS = 8

_NO_CONSTRAINT = float("-inf")


@dataclass(frozen=True, slots=True)
class VertexSignature:
    """The incoming/outgoing multi-edge signature of one vertex."""

    incoming: tuple[frozenset[int], ...]
    outgoing: tuple[frozenset[int], ...]

    def all_multi_edges(self) -> tuple[frozenset[int], ...]:
        """Return the full multiset of multi-edges regardless of direction."""
        return self.incoming + self.outgoing

    def edge_type_total(self) -> int:
        """Return the total number of (edge, type) incidences; the r2 rank of Sec. 5.3."""
        return sum(len(types) for types in self.all_multi_edges())


def signature_of(graph: Multigraph, vertex: int) -> VertexSignature:
    """Compute the vertex signature of ``vertex`` in ``graph``."""
    incoming = tuple(frozenset(types) for types in graph.in_neighbors(vertex).values())
    outgoing = tuple(frozenset(types) for types in graph.out_neighbors(vertex).values())
    return VertexSignature(incoming=incoming, outgoing=outgoing)


def side_features(multi_edges: Iterable[frozenset[int]]) -> tuple[float, float, float, float]:
    """Compute ``(f1, f2, -min_index, max_index)`` for one direction."""
    multi_edges = list(multi_edges)
    if not multi_edges:
        return (0.0, 0.0, 0.0, 0.0)
    all_types = set()
    max_cardinality = 0
    for types in multi_edges:
        all_types.update(types)
        if len(types) > max_cardinality:
            max_cardinality = len(types)
    return (
        float(max_cardinality),
        float(len(all_types)),
        float(-min(all_types)),
        float(max(all_types)),
    )


def data_synopsis(signature: VertexSignature) -> tuple[float, ...]:
    """Return the 8-field synopsis of a *data* vertex signature."""
    return side_features(signature.incoming) + side_features(signature.outgoing)


def _adjacency_features(adjacent: dict[int, set[int]]) -> tuple[float, float, float, float]:
    """:func:`side_features` read straight off one side's ``{neighbour: types}``."""
    if not adjacent:
        return (0.0, 0.0, 0.0, 0.0)
    multi_edges = adjacent.values()
    all_types = set().union(*multi_edges)
    return (
        float(max(map(len, multi_edges))),
        float(len(all_types)),
        float(-min(all_types)),
        float(max(all_types)),
    )


def vertex_synopsis(graph: Multigraph, vertex: int) -> tuple[float, ...]:
    """``data_synopsis(signature_of(graph, vertex))`` without building the signature.

    The synopsis only needs the widest multi-edge and the union of types
    per side, so it is computed from the adjacency sets directly — no
    frozenset per neighbour.  This is what the signature index builds and
    refreshes with.
    """
    return _adjacency_features(graph.in_neighbors(vertex)) + _adjacency_features(
        graph.out_neighbors(vertex)
    )


def query_synopsis(
    incoming: Sequence[frozenset[int]],
    outgoing: Sequence[frozenset[int]],
) -> tuple[float, ...]:
    """Return the 8-field lower-bound synopsis of a *query* vertex.

    A direction with no multi-edges must not constrain candidates, so its
    fields are the identity of the dominance test: ``0`` for ``f1``, ``f2``
    and ``f4`` (data fields are never negative) and ``-inf`` for the negated
    ``f3`` field (data ``-min`` values can be arbitrarily negative).
    """
    fields: list[float] = []
    for side in (incoming, outgoing):
        side = list(side)
        if not side:
            fields.extend((0.0, 0.0, _NO_CONSTRAINT, 0.0))
        else:
            fields.extend(side_features(side))
    return tuple(fields)


def dominates(query_fields: Sequence[float], data_fields: Sequence[float]) -> bool:
    """Return True when ``data_fields`` dominate ``query_fields`` field-wise.

    This is the candidate condition of Lemma 1:
    ``f_i(u) <= f_i(v)`` for every synopsis field ``i``.
    """
    if len(query_fields) != len(data_fields):
        raise ValueError("synopsis vectors must have the same number of fields")
    return all(q <= d for q, d in zip(query_fields, data_fields))
