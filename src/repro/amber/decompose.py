"""Query decomposition and vertex ordering (Sections 3 and 5.3).

The query vertices ``U`` are split into *core* vertices ``Uc`` (structural
degree greater than one) and *satellite* vertices ``Us`` (degree exactly
one).  When the whole query has maximum degree one — a single vertex or a
single multi-edge — one vertex is promoted to core so that the recursive
matcher always has a starting point.

Core vertices are then ordered with the two ranking heuristics of
Section 5.3:

* ``r1(u)`` — the number of satellite vertices attached to ``u``
  (more satellites first: a structure-rich vertex is more selective),
* ``r2(u)`` — the total number of edge types incident on ``u``.

The resulting order is connectivity-constrained: after the initial vertex,
each subsequent core vertex must be adjacent to an already-ordered one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from ..multigraph.query_graph import QueryMultigraph

__all__ = ["QueryDecomposition", "decompose_query", "order_core_vertices"]


@dataclass
class QueryDecomposition:
    """Core/satellite split of (one connected component of) a query multigraph."""

    core: list[int]
    satellites: list[int]
    #: For every core vertex, the satellite vertices hanging off it.
    satellites_of: dict[int, list[int]] = field(default_factory=dict)

    def satellite_count(self, core_vertex: int) -> int:
        """Return ``r1(core_vertex)``: the number of attached satellites."""
        return len(self.satellites_of.get(core_vertex, ()))


def decompose_query(
    qgraph: QueryMultigraph, component: Iterable[int] | None = None
) -> QueryDecomposition:
    """Split the query vertices of ``component`` (default: all) into core and satellite sets."""
    vertices = sorted(component) if component is not None else sorted(qgraph.vertices)
    if not vertices:
        return QueryDecomposition(core=[], satellites=[], satellites_of={})

    degrees = {u: qgraph.degree(u) for u in vertices}
    max_degree = max(degrees.values())
    if max_degree > 1:
        core = [u for u in vertices if degrees[u] > 1]
    else:
        # Single vertex or single multi-edge: promote the most constrained
        # vertex (attributes, IRI constraints, then edge count) to core so
        # the initial candidate set is as small as possible.
        def constraint_rank(u: int) -> tuple[int, int, int]:
            vertex = qgraph.vertices[u]
            return (
                len(vertex.attributes),
                len(vertex.iri_constraints),
                sum(len(types) for types in qgraph.multi_edge_signature(u)),
            )

        core = [max(vertices, key=constraint_rank)]

    core_set = set(core)
    satellites = [u for u in vertices if u not in core_set]
    satellites_of: dict[int, list[int]] = {u: [] for u in core}
    for satellite in satellites:
        neighbors = qgraph.graph.neighbors(satellite) & core_set
        # A satellite has degree one, hence exactly one core neighbour; a
        # degree-zero vertex (isolated variable with only attributes/IRIs)
        # has none and is handled by the engine as its own component.
        for core_vertex in neighbors:
            satellites_of[core_vertex].append(satellite)
    return QueryDecomposition(core=core, satellites=satellites, satellites_of=satellites_of)


def order_core_vertices(
    qgraph: QueryMultigraph,
    decomposition: QueryDecomposition,
    strategy: str = "heuristic",
    rng: random.Random | None = None,
    cardinality: dict[int, int] | None = None,
) -> list[int]:
    """Return the processing order of core vertices.

    ``strategy`` is ``"heuristic"`` for the paper's (r1, r2) ranking,
    ``"random"`` for the ablation baseline, or ``"cardinality"`` to start
    from the core vertex with the smallest estimated candidate count
    (``cardinality`` maps core vertices to estimates; the (r1, r2) ranking
    breaks ties).  All strategies stay connectivity-constrained.
    """
    core = list(decomposition.core)
    if len(core) <= 1:
        return core
    if strategy not in ("heuristic", "random", "cardinality"):
        raise ValueError(f"unknown ordering strategy {strategy!r}")
    if strategy == "cardinality" and cardinality is None:
        raise ValueError("cardinality ordering requires a cardinality estimate mapping")

    has_satellites = bool(decomposition.satellites)

    def heuristic_rank(u: int) -> tuple[float, float]:
        r1 = decomposition.satellite_count(u)
        r2 = sum(len(types) for types in qgraph.multi_edge_signature(u))
        # When the query has no satellites at all, r2 takes priority (Sec. 5.3).
        return (r1, r2) if has_satellites else (r2, r1)

    rank = heuristic_rank

    if strategy == "random":
        rng = rng or random.Random(0)
        scores = {u: rng.random() for u in core}

        def rank(u: int) -> tuple[float, float]:  # noqa: F811 - intentional override
            return (scores[u], 0.0)

    elif strategy == "cardinality":
        worst = max(cardinality.values(), default=0) + 1

        def rank(u: int) -> tuple[float, float, float]:  # noqa: F811 - intentional override
            return (-cardinality.get(u, worst), *heuristic_rank(u))

    ordered: list[int] = []
    remaining = set(core)
    current = max(remaining, key=lambda u: (rank(u), -u))
    ordered.append(current)
    remaining.discard(current)
    while remaining:
        frontier = {u for u in remaining if not qgraph.graph.neighbors(u).isdisjoint(ordered)}
        # The core-spanned structure of a connected query is connected, but a
        # defensive fallback keeps progress for degenerate inputs.
        pool = frontier if frontier else remaining
        current = max(pool, key=lambda u: (rank(u), -u))
        ordered.append(current)
        remaining.discard(current)
    return ordered
