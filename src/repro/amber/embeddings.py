"""Turning matcher solutions into SPARQL bindings (GenEmb, Section 5.3).

A :class:`ComponentSolution` stores one data vertex per core vertex and a
set of data vertices per satellite vertex.  This module expands those
solutions into full embeddings, translates vertex ids back into RDF
entities through the inverse vertex mapping ``Mv^-1`` and combines the
results of independent connected components with a Cartesian product.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..multigraph.builder import DataMultigraph
from ..multigraph.query_graph import QueryMultigraph
from ..sparql.bindings import Binding
from ..timing import Deadline
from .matching import ComponentSolution

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .vectorized import ColumnarSolutions

__all__ = [
    "columnar_bindings",
    "combine_component_bindings",
    "component_bindings",
    "solution_to_bindings",
]


def solution_to_bindings(
    solution: ComponentSolution, qgraph: QueryMultigraph, data: DataMultigraph
) -> Iterator[Binding]:
    """Expand one component solution into bindings over the component's variables."""
    for embedding in solution.embeddings():
        yield Binding(
            {
                qgraph.variable_of(query_vertex): data.entity(data_vertex)
                for query_vertex, data_vertex in embedding.items()
            }
        )


def component_bindings(
    solutions: Iterable[ComponentSolution], qgraph: QueryMultigraph, data: DataMultigraph
) -> Iterator[Binding]:
    """Expand every solution of one component into bindings."""
    for solution in solutions:
        yield from solution_to_bindings(solution, qgraph, data)


def columnar_bindings(
    batch: "ColumnarSolutions",
    qgraph: QueryMultigraph,
    data: DataMultigraph,
    deadline: Deadline | None = None,
) -> Iterator[Binding]:
    """Expand a factored columnar batch into bindings, row for row.

    Emits exactly the rows ``component_bindings(batch.iter_solutions(), …)``
    would, in the same order, but exploits the factoring: each distinct
    satellite candidate block is sorted and translated to RDF terms once
    (blocks are shared across many states), and each data vertex goes
    through ``Mv^-1`` at most once for the whole batch.
    """
    translated: dict[int, object] = {}

    def term(vertex: int):
        entity = translated.get(vertex)
        if entity is None:
            entity = translated[vertex] = data.entity(vertex)
        return entity

    core_variables = [qgraph.variable_of(q) for q in batch.core_order]
    # Satellite tables in query-vertex order with pre-translated blocks:
    # ComponentSolution.embeddings() iterates sorted satellites, values
    # ascending, last satellite varying fastest — product() order below.
    tables = sorted(batch.satellites, key=lambda table: table[0])
    satellite_variables = [qgraph.variable_of(vertex) for vertex, _, _, _ in tables]
    block_terms: list[list[list[object]]] = []
    index_columns: list[list[int]] = []
    for _, values, indptr, index in tables:
        flat = values.tolist()
        bounds = indptr.tolist()
        block_terms.append(
            [
                [term(v) for v in sorted(set(flat[bounds[j] : bounds[j + 1]]))]
                for j in range(len(bounds) - 1)
            ]
        )
        index_columns.append(index.tolist())
    for i, state in enumerate(batch.states.tolist()):
        if deadline is not None and (i & 1023) == 0:
            deadline.check()
        base = dict(zip(core_variables, (term(v) for v in state)))
        if not tables:
            yield Binding(base)
            continue
        blocks = [block_terms[k][column[i]] for k, column in enumerate(index_columns)]
        for combination in product(*blocks):
            row = dict(base)
            row.update(zip(satellite_variables, combination))
            yield Binding(row)


def combine_component_bindings(per_component: Sequence[list[Binding]]) -> Iterator[Binding]:
    """Cartesian-combine the bindings of independent connected components.

    SPARQL semantics for a disconnected basic graph pattern is the cross
    product of the component answers; an empty component answer therefore
    yields an empty overall result.
    """
    if not per_component:
        yield Binding({})
        return
    for combination in product(*per_component):
        merged: Binding | None = combination[0]
        for part in combination[1:]:
            merged = merged.merge(part)
            if merged is None:
                break
        if merged is not None:
            yield merged
